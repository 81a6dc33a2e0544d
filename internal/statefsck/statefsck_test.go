package statefsck

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/snapshot"
	"clientmap/internal/statefs"
	"clientmap/internal/stream"
)

// writeDelta persists a minimal PassDelta checkpoint for stage and
// returns its payload hash. Chain tests thread hashes through Base.
func writeDelta(t *testing.T, dir, stage, base string) string {
	t.Helper()
	return writeDeltaVersion(t, dir, stage, base, snapshot.VersionCampaignDelta)
}

func writeDeltaVersion(t *testing.T, dir, stage, base string, version uint16) string {
	t.Helper()
	d := &cacheprobe.PassDelta{Base: base, Passes: 4}
	h := snapshot.Header{Kind: snapshot.KindCampaignDelta, Version: version, Fingerprint: "fp"}
	data, hash := snapshot.Marshal(h, func(w *snapshot.Writer) { snapshot.EncodePassDelta(w, d) })
	writeRaw(t, dir, stage+".snap", data)
	return hash
}

func writeRaw(t *testing.T, dir, rel string, data []byte) {
	t.Helper()
	path := filepath.Join(dir, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// chainDir builds calibration + probe-pass-0..n-1 correctly chained.
func chainDir(t *testing.T, dir string, n int) []string {
	t.Helper()
	hashes := make([]string, 0, n+1)
	h := writeDelta(t, dir, "calibration", "")
	hashes = append(hashes, h)
	for k := 0; k < n; k++ {
		h = writeDelta(t, dir, ProbePass(k), h)
		hashes = append(hashes, h)
	}
	return hashes
}

func ProbePass(k int) string { return "probe-pass-" + string(rune('0'+k)) }

// findingFor returns the finding for a relative path, failing if absent.
func findingFor(t *testing.T, rep *Report, path string) Finding {
	t.Helper()
	for _, f := range rep.Findings {
		if f.Path == path {
			return f
		}
	}
	t.Fatalf("no finding for %q in:\n%s", path, rep.Text())
	return Finding{}
}

func TestScanMissingDir(t *testing.T) {
	rep, err := Scan(nil, filepath.Join(t.TempDir(), "never-created"), Options{})
	if err != nil {
		t.Fatalf("missing dir should scan clean: %v", err)
	}
	if len(rep.Findings) != 0 || rep.Problems() != 0 {
		t.Fatalf("expected empty report, got:\n%s", rep.Text())
	}
	if got := rep.Summary(); got != "empty state directory: nothing to check" {
		t.Fatalf("summary = %q", got)
	}
}

func TestScanValidChain(t *testing.T) {
	dir := t.TempDir()
	chainDir(t, dir, 3)
	rep, err := Scan(nil, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Problems() != 0 {
		t.Fatalf("clean chain reported problems:\n%s", rep.Text())
	}
	if len(rep.Findings) != 4 {
		t.Fatalf("want 4 findings, got:\n%s", rep.Text())
	}
	for _, f := range rep.Findings {
		if f.Class != ClassValid || f.Action != ActionKeep {
			t.Fatalf("finding %+v not valid/keep", f)
		}
	}

	// Determinism: scanning the same damage twice renders byte-identical
	// text and JSON.
	rep2, err := Scan(nil, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Text() != rep2.Text() {
		t.Fatal("Text() not deterministic")
	}
	j1, _ := rep.JSON()
	j2, _ := rep2.JSON()
	if !bytes.Equal(j1, j2) {
		t.Fatal("JSON() not deterministic")
	}
}

func TestClassifyDamage(t *testing.T) {
	dir := t.TempDir()
	hashes := chainDir(t, dir, 2)
	_ = hashes

	// Truncate a standalone stage: corrupt.
	data, err := os.ReadFile(filepath.Join(dir, "calibration.snap"))
	if err != nil {
		t.Fatal(err)
	}
	writeRaw(t, dir, "truncated.snap", data[:len(data)/2])
	// Flip a payload byte: checksum mismatch, corrupt.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-9] ^= 0x40
	writeRaw(t, dir, "flipped.snap", flipped)
	// Wrong artifact version: version-mismatch.
	writeDeltaVersion(t, dir, "old-format", "", 99)
	// Unknown kind with a good checksum: valid, checksum-only.
	uh := snapshot.Header{Kind: "experiments.Baselines", Version: 1}
	udata, _ := snapshot.Marshal(uh, func(w *snapshot.Writer) { w.String("opaque") })
	writeRaw(t, dir, "baselines.snap", udata)
	// Foreign file: aux.
	writeRaw(t, dir, "notes.txt", []byte("operator scribbles"))

	rep, err := Scan(nil, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]struct {
		class  Class
		action Action
	}{
		"truncated.snap":   {ClassCorrupt, ActionQuarantine},
		"flipped.snap":     {ClassCorrupt, ActionQuarantine},
		"old-format.snap":  {ClassVersionMismatch, ActionQuarantine},
		"baselines.snap":   {ClassValid, ActionKeep},
		"notes.txt":        {ClassAux, ActionKeep},
		"calibration.snap": {ClassValid, ActionKeep},
	} {
		f := findingFor(t, rep, path)
		if f.Class != want.class || f.Action != want.action {
			t.Errorf("%s: got %s/%s, want %s/%s", path, f.Class, f.Action, want.class, want.action)
		}
	}
}

func TestChainTruncationOnCorruptLink(t *testing.T) {
	dir := t.TempDir()
	chainDir(t, dir, 4)
	// Rot pass 1: it must go, and passes 2 and 3 — structurally pristine
	// — lose their verifiable lineage and go with it.
	path := filepath.Join(dir, "probe-pass-1.snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Scan(nil, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantClass := map[string]Class{
		"calibration.snap":  ClassValid,
		"probe-pass-0.snap": ClassValid,
		"probe-pass-1.snap": ClassCorrupt,
		"probe-pass-2.snap": ClassBrokenChain,
		"probe-pass-3.snap": ClassBrokenChain,
	}
	for path, want := range wantClass {
		if f := findingFor(t, rep, path); f.Class != want {
			t.Errorf("%s: got %s, want %s\n%s", path, f.Class, want, rep.Text())
		}
	}
}

func TestChainTruncationOnBaseMismatch(t *testing.T) {
	dir := t.TempDir()
	chainDir(t, dir, 2)
	// Rewrite pass 1 with a forged base: checksum fine, lineage wrong.
	writeDelta(t, dir, "probe-pass-1", "0000deadbeef0000")

	rep, err := Scan(nil, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := findingFor(t, rep, "probe-pass-1.snap")
	if f.Class != ClassBrokenChain || f.Action != ActionQuarantine {
		t.Fatalf("forged base: got %s/%s\n%s", f.Class, f.Action, rep.Text())
	}
	if !strings.Contains(f.Detail, "does not match") {
		t.Fatalf("detail %q should name the mismatch", f.Detail)
	}
	if f := findingFor(t, rep, "probe-pass-0.snap"); f.Class != ClassValid {
		t.Fatalf("pass 0 should survive: %+v", f)
	}
}

func TestChainAnchorMissing(t *testing.T) {
	dir := t.TempDir()
	h := writeDelta(t, dir, "probe-pass-0", "feedface")
	writeDelta(t, dir, "probe-pass-1", h)
	// No calibration checkpoint at all: pass 0's base is unverifiable,
	// and the whole chain goes with it.
	rep, err := Scan(nil, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"probe-pass-0.snap", "probe-pass-1.snap"} {
		if f := findingFor(t, rep, path); f.Class != ClassBrokenChain {
			t.Errorf("%s: got %s, want broken-chain\n%s", path, f.Class, rep.Text())
		}
	}
}

func TestOrphanTmpAge(t *testing.T) {
	dir := t.TempDir()
	chainDir(t, dir, 1)
	writeRaw(t, dir, "calibration.snap.tmp-dead1", []byte("partial"))
	writeRaw(t, dir, "calibration.snap.tmp-live2", []byte("partial"))
	old := time.Now().Add(-10 * time.Minute)
	if err := os.Chtimes(filepath.Join(dir, "calibration.snap.tmp-dead1"), old, old); err != nil {
		t.Fatal(err)
	}

	rep, err := Scan(nil, dir, Options{MinTmpAge: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if f := findingFor(t, rep, "calibration.snap.tmp-dead1"); f.Class != ClassOrphanTmp || f.Action != ActionSweep {
		t.Fatalf("old litter: %+v", f)
	}
	if f := findingFor(t, rep, "calibration.snap.tmp-live2"); f.Class != ClassOrphanTmp || f.Action != ActionKeep {
		t.Fatalf("fresh temp must be kept (live writer may own it): %+v", f)
	}

	// Without the guard everything sweeps.
	rep, err = Scan(nil, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f := findingFor(t, rep, "calibration.snap.tmp-live2"); f.Action != ActionSweep {
		t.Fatalf("MinTmpAge=0 should sweep all litter: %+v", f)
	}
}

func TestStealClaims(t *testing.T) {
	dir := t.TempDir()
	h := writeDelta(t, dir, "calibration", "")
	writeDelta(t, dir, "probe-pass-0", h)
	// Shard sub-stage checkpoint plus its satisfied claim.
	writeDelta(t, dir, "probe-pass-0/shard-1", "")
	writeRaw(t, dir, "shards/probe-pass-0_shard-1.steal", []byte("2\n"))
	// Claim for a stage nobody checkpointed: owner may be mid-build.
	writeRaw(t, dir, "shards/probe-pass-1_shard-0.steal", []byte("0\n"))

	rep, err := Scan(nil, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f := findingFor(t, rep, "shards/probe-pass-0_shard-1.steal"); f.Class != ClassStaleClaim || f.Action != ActionSweep {
		t.Fatalf("satisfied claim: %+v", f)
	}
	if f := findingFor(t, rep, "shards/probe-pass-1_shard-0.steal"); f.Class != ClassAux || f.Action != ActionKeep {
		t.Fatalf("unsatisfied claim must be kept: %+v", f)
	}
	if f := findingFor(t, rep, "probe-pass-0/shard-1.snap"); f.Class != ClassValid {
		t.Fatalf("shard sub-stage should verify standalone: %+v", f)
	}
}

func TestRepairConverges(t *testing.T) {
	dir := t.TempDir()
	chainDir(t, dir, 3)
	// Corrupt pass 1, drop litter, leave a satisfied claim.
	path := filepath.Join(dir, "probe-pass-1.snap")
	data, _ := os.ReadFile(path)
	data[len(data)-10] ^= 1
	os.WriteFile(path, data, 0o644)
	writeRaw(t, dir, "probe-pass-1.snap.tmp-x1", []byte("junk"))
	writeRaw(t, dir, "shards/calibration.steal", []byte("1\n"))

	rep, err := Repair(nil, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Repaired(); got != 4 {
		t.Fatalf("want 4 repairs (pass 1 + pass 2 quarantined, litter + claim swept), got %d:\n%s", got, rep.Text())
	}
	// Quarantine preserved the evidence under a flattened name.
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "probe-pass-1.snap")); err != nil {
		t.Fatalf("quarantined checkpoint missing: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt checkpoint still in place")
	}
	if _, err := os.Stat(filepath.Join(dir, "probe-pass-1.snap.tmp-x1")); !os.IsNotExist(err) {
		t.Fatal("litter survived repair")
	}

	// A second pass over the repaired directory finds nothing to do:
	// repair is idempotent and convergent.
	rep2, err := Repair(nil, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Problems() != 0 || rep2.Repaired() != 0 {
		t.Fatalf("repair did not converge:\n%s", rep2.Text())
	}
}

func TestStreamChain(t *testing.T) {
	dir := t.TempDir()
	h := writeDelta(t, dir, "calibration", "")
	h0 := writeStreamHour(t, dir, 0, h)
	writeStreamHour(t, dir, 1, h0)
	writeStreamHour(t, dir, 2, "bogus-base")

	rep, err := Scan(nil, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f := findingFor(t, rep, "stream-hour-1.snap"); f.Class != ClassValid {
		t.Fatalf("hour 1: %+v", f)
	}
	if f := findingFor(t, rep, "stream-hour-2.snap"); f.Class != ClassBrokenChain {
		t.Fatalf("hour 2 forged base: %+v\n%s", f, rep.Text())
	}
}

// TestLineageFromRecordedBases: lineage follows the bases checkpoints
// record under any stage names, and a cut delta's detail names the
// checkpoint it was built on whenever one carries that hash.
func TestLineageFromRecordedBases(t *testing.T) {
	dir := t.TempDir()
	// Each step records its own pass, so no two payloads share a hash.
	pass := 0
	step := func(stage, base string, version uint16) string {
		pass++
		d := &cacheprobe.PassDelta{Pass: pass, Base: base}
		h := snapshot.Header{Kind: snapshot.KindCampaignDelta, Version: version}
		data, hash := snapshot.Marshal(h, func(w *snapshot.Writer) { snapshot.EncodePassDelta(w, d) })
		writeRaw(t, dir, stage+".snap", data)
		return hash
	}
	v := snapshot.VersionCampaignDelta
	root := step("anchor", "", v)
	step("x/two", step("x/one", root, v), v)
	step("y/three", step("y/two", step("y/one", root, v), v), v)
	damage(t, dir, "y/one.snap")
	step("on-old", step("old", root, 99), v)

	rep, err := Scan(nil, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]struct {
		class  Class
		detail string
	}{
		"x/one.snap":   {ClassValid, ""},
		"x/two.snap":   {ClassValid, ""},
		"y/one.snap":   {ClassCorrupt, ""},
		"y/two.snap":   {ClassBrokenChain, "does not match any valid checkpoint"},
		"y/three.snap": {ClassBrokenChain, "built on y/two, which was cut"},
		"old.snap":     {ClassVersionMismatch, ""},
		"on-old.snap":  {ClassBrokenChain, "built on old, which is version-mismatch"},
	} {
		f := findingFor(t, rep, path)
		if f.Class != want.class || !strings.Contains(f.Detail, want.detail) {
			t.Errorf("%s: %s (%s), want %s (%s)", path, f.Class, f.Detail, want.class, want.detail)
		}
	}
}

// TestLineageUnknownKindIsRoot: a checkpoint whose kind fsck does not
// deep-check — here a pass delta whose header kind rotted, which the
// payload checksum does not cover — records no base fsck can read, so
// it is a root: kept checksum-only, with the deltas built on it. Resume
// rebuilds it (its kind no longer matches), byte-identical, and the
// successors' recorded base still holds.
func TestLineageUnknownKindIsRoot(t *testing.T) {
	dir := t.TempDir()
	h := chainDir(t, dir, 3)
	path := filepath.Join(dir, "probe-pass-1.snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(snapshot.KindCampaignDelta))
	data[i] ^= 0x20 // "cacheprobe…" → "Cacheprobe…"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Scan(nil, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f := findingFor(t, rep, "probe-pass-1.snap"); f.Class != ClassValid || !strings.Contains(f.Detail, "not deep-checked") {
		t.Fatalf("rotted kind: %+v", f)
	}
	if f := findingFor(t, rep, "probe-pass-2.snap"); f.Class != ClassValid || !strings.Contains(f.Detail, h[2][:12]) {
		t.Fatalf("delta built on the rotted kind: %+v", f)
	}
}

// writeStreamHour persists a minimal HourDelta checkpoint whose
// Pass.Base is base, returning its payload hash.
func writeStreamHour(t *testing.T, dir string, k int, base string) string {
	t.Helper()
	data, hash := stream.HourDeltaCodec.Marshal("fp", &stream.HourDelta{Hour: k, Pass: &cacheprobe.PassDelta{Base: base}})
	writeRaw(t, dir, StreamHour(k)+".snap", data)
	return hash
}

func StreamHour(k int) string { return "stream-hour-" + string(rune('0'+k)) }

// brokenFS refuses every mutation — the half-broken filesystem repair
// must never wedge on.
type brokenFS struct{ statefs.FS }

func (brokenFS) Remove(string) error         { return errors.New("read-only filesystem") }
func (brokenFS) Rename(string, string) error { return errors.New("read-only filesystem") }
func (brokenFS) MkdirAll(path string) error  { return errors.New("read-only filesystem") }

// TestRepairNeverWedges: when every sweep and quarantine fails, Repair
// still returns the full report — actions downgrade to kept findings
// with the failure in the detail, and nothing reports Applied.
func TestRepairNeverWedges(t *testing.T) {
	dir := t.TempDir()
	chainDir(t, dir, 2)
	damage(t, dir, "probe-pass-1.snap")
	writeRaw(t, dir, "litter.snap.tmp-4", []byte("partial"))
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, "litter.snap.tmp-4"), old, old); err != nil {
		t.Fatal(err)
	}

	rep, err := Repair(brokenFS{statefs.Disk{}}, dir, Options{MinTmpAge: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Problems() == 0 {
		t.Fatal("expected problems on a damaged directory")
	}
	if rep.Repaired() != 0 {
		t.Errorf("Repaired() = %d on a read-only filesystem, want 0", rep.Repaired())
	}
	failed := 0
	for _, f := range rep.Findings {
		if f.Applied {
			t.Errorf("%s reports Applied on a read-only filesystem", f.Path)
		}
		if strings.Contains(f.Detail, "failed: read-only filesystem") {
			failed++
		}
	}
	if failed == 0 {
		t.Error("no finding carries the repair failure in its detail")
	}

	// The damage is still there for a later, healthier repair.
	if _, err := os.Stat(filepath.Join(dir, "probe-pass-1.snap")); err != nil {
		t.Errorf("failed quarantine must leave the file in place: %v", err)
	}
	rep2, err := Repair(statefs.Disk{}, dir, Options{MinTmpAge: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Repaired() == 0 {
		t.Error("healthy repair after a wedged one applied nothing")
	}
}

// damage flips one trailing payload byte of an existing snap in place.
func damage(t *testing.T, dir, rel string) {
	t.Helper()
	path := filepath.Join(dir, rel)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// The name-based lineage check statefsck used before it read lineage
// from recorded bases, kept as the reference TestLineageMatchesNameChains
// holds Scan to. It knew the campaign's stage names: top-level
// "<prefix><k>" deltas chained from calibration, link by link.

// chainStage matches top-level delta stages: "<prefix><k>" with no
// directory component (shard sub-stages verify standalone).
var chainStage = regexp.MustCompile(`^(probe-pass-|stream-hour-)(\d+)$`)

// chainAnchor is the stage whose payload hash the first delta of every
// chain records as its base.
const chainAnchor = "calibration"

// verifyChain truncates the prefix's delta chain at the first link
// whose base cannot be verified: a missing or unhealthy predecessor, or
// a base hash that does not match the predecessor's payload hash. The
// broken delta and every later one are re-classified broken-chain and
// quarantined.
func (s *scanner) verifyChain(prefix string) {
	byK := make(map[int]*snapInfo)
	maxK := -1
	for stage, info := range s.snaps {
		m := chainStage.FindStringSubmatch(stage)
		if m == nil || m[1] != prefix {
			continue
		}
		k, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		byK[k] = info
		if k > maxK {
			maxK = k
		}
	}
	if maxK < 0 {
		return
	}
	prevHash, prevName := "", chainAnchor
	if a, ok := s.snaps[chainAnchor]; ok && a.healthy {
		prevHash = a.hash
	}
	broken := ""
	for k := 0; k <= maxK; k++ {
		info, ok := byK[k]
		if !ok { // gap: later deltas have no verifiable lineage
			if broken == "" {
				broken = fmt.Sprintf("%s%d missing", prefix, k)
			}
			prevHash, prevName = "", fmt.Sprintf("%s%d", prefix, k)
			continue
		}
		if !info.healthy { // already corrupt/mismatched; later deltas lose their base
			if broken == "" {
				broken = fmt.Sprintf("%s%d is %s", prefix, k, s.findings[info.idx].Class)
			}
			prevHash, prevName = "", info.stage
			continue
		}
		switch {
		case broken != "":
			s.reclass(info, fmt.Sprintf("chain truncated: %s", broken))
		case prevHash == "":
			s.reclass(info, fmt.Sprintf("base %s unverifiable (%s missing or invalid)", prevName, prevName))
			broken = prevName + " unverifiable"
		case info.base != prevHash:
			s.reclass(info, fmt.Sprintf("base %.12s does not match %s payload %.12s", info.base, prevName, prevHash))
			broken = fmt.Sprintf("%s%d base mismatch", prefix, k)
		}
		prevHash, prevName = info.hash, info.stage
		if s.findings[info.idx].Class == ClassBrokenChain {
			prevHash = "" // a quarantined link cannot anchor its successor
		}
	}
}

// reclass downgrades a valid delta to broken-chain.
func (s *scanner) reclass(info *snapInfo, detail string) {
	f := &s.findings[info.idx]
	f.Class = ClassBrokenChain
	f.Action = ActionQuarantine
	f.Detail = detail
	info.healthy = false
}

// referenceScan is Scan with the name-based chain check in place of
// lineage.
func referenceScan(t *testing.T, dir string) *Report {
	t.Helper()
	s := &scanner{fs: statefs.Disk{}, dir: dir, now: time.Now(), snaps: make(map[string]*snapInfo)}
	if err := s.walk(""); err != nil {
		t.Fatal(err)
	}
	s.verifyChain("probe-pass-")
	s.verifyChain("stream-hour-")
	s.resolveClaims()
	sort.Slice(s.findings, func(i, j int) bool { return s.findings[i].Path < s.findings[j].Path })
	return &Report{Dir: dir, Findings: s.findings}
}

// damagedDir is one generated state directory: a calibration anchoring
// a batch chain and a stream chain, shard sub-stages and steal claims
// under some links, then random damage.
type damagedDir struct {
	t   *testing.T
	dir string
	rng *rand.Rand
	fp  string
}

func (g *damagedDir) hex() string {
	b := make([]byte, 32)
	g.rng.Read(b)
	return fmt.Sprintf("%x", b)
}

// at returns a writer of stage's checkpoint that passes its hash on.
func (g *damagedDir) at(stage string) func(data []byte, hash string) string {
	return func(data []byte, hash string) string {
		writeRaw(g.t, g.dir, stage+".snap", data)
		return hash
	}
}

func (g *damagedDir) pass(stage string, k int, base string) string {
	return g.at(stage)(snapshot.PassDeltaCodec.Marshal(g.fp, &cacheprobe.PassDelta{Pass: k, Passes: 9, ProbesSent: g.rng.Intn(1 << 20), Base: base}))
}

func (g *damagedDir) hour(stage string, k int, base string) string {
	return g.at(stage)(stream.HourDeltaCodec.Marshal(g.fp, &stream.HourDelta{Hour: k, Pass: &cacheprobe.PassDelta{Pass: k, ProbesSent: g.rng.Intn(1 << 20), Base: base}}))
}

// generate writes the healthy directory and returns its chain links
// (stage → writer that rewrites the link with another base).
func (g *damagedDir) generate() map[string]func(base string) {
	camp := cacheprobe.NewCampaign()
	g.at("scope-prescan")(snapshot.CampaignCodec.Marshal(g.fp, camp))
	camp.Passes = 1
	anchor := g.at("calibration")(snapshot.CampaignCodec.Marshal(g.fp, camp))
	links := make(map[string]func(string))
	for _, ch := range []struct {
		prefix string
		write  func(stage string, k int, base string) string
	}{{"probe-pass-", g.pass}, {"stream-hour-", g.hour}} {
		base := anchor
		for k, n := 0, 1+g.rng.Intn(6); k < n; k++ {
			stage, k, write := fmt.Sprintf("%s%d", ch.prefix, k), k, ch.write
			if g.rng.Intn(3) == 0 {
				for i := 0; i < 3; i++ {
					shard := fmt.Sprintf("%s/shard-%d", stage, i)
					g.at(shard)(snapshot.ShardResultCodec.Marshal(g.fp, &cacheprobe.ShardResult{Pass: k}))
					if g.rng.Intn(3) == 0 {
						writeRaw(g.t, g.dir, "shards/"+ClaimFile(shard), []byte("1\n"))
					}
				}
			}
			if g.rng.Intn(4) == 0 {
				writeRaw(g.t, g.dir, "shards/"+ClaimFile(stage), []byte("2\n"))
			}
			base = write(stage, k, base)
			links[stage] = func(b string) { write(stage, k, b) }
		}
	}
	return links
}

// damage applies 1–3 random faults: a deleted link, a torn or bit-rotted
// file (rot flips one bit in the upper half, as statefs.Faulty does), a
// link rewritten with a forged base, or the missing calibration.
func (g *damagedDir) damage(links map[string]func(string)) {
	var snaps []string
	filepath.WalkDir(g.dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".snap") {
			snaps = append(snaps, path)
		}
		return nil
	})
	sort.Strings(snaps)
	stages := make([]string, 0, len(links))
	for stage := range links {
		stages = append(stages, stage)
	}
	sort.Strings(stages)
	for n := 1 + g.rng.Intn(3); n > 0; n-- {
		path := snaps[g.rng.Intn(len(snaps))]
		data, err := os.ReadFile(path)
		if err != nil {
			continue // already deleted
		}
		switch g.rng.Intn(5) {
		case 0:
			os.Remove(path)
		case 1:
			os.WriteFile(path, data[:1+g.rng.Intn(len(data)-1)], 0o644)
		case 2:
			half := len(data) / 2
			data[half+g.rng.Intn(len(data)-half)] ^= 1 << g.rng.Intn(8)
			os.WriteFile(path, data, 0o644)
		case 3:
			links[stages[g.rng.Intn(len(stages))]](g.hex())
		case 4:
			os.Remove(filepath.Join(g.dir, "calibration.snap"))
		}
	}
}

// TestLineageMatchesNameChains: over seeded state directories holding a
// batch chain and a stream chain, shard sub-stages, steal claims and
// random damage, lineage read from recorded bases classifies every file
// exactly as the name-based chain check did.
func TestLineageMatchesNameChains(t *testing.T) {
	root := t.TempDir()
	for seed := int64(0); seed < 240; seed++ {
		g := &damagedDir{t: t, dir: filepath.Join(root, strconv.FormatInt(seed, 10)), rng: rand.New(rand.NewSource(seed))}
		g.fp = g.hex()
		g.damage(g.generate())
		want := referenceScan(t, g.dir)
		got, err := Scan(nil, g.dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if triples(got) != triples(want) {
			t.Fatalf("seed %d: lineage disagrees with the name-based chains\nreference:\n%s\nlineage:\n%s", seed, want.Text(), got.Text())
		}
	}
}

// triples renders a report's (path, class, action) triples.
func triples(r *Report) string {
	var b strings.Builder
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "%s %s %s\n", f.Path, f.Class, f.Action)
	}
	return b.String()
}
