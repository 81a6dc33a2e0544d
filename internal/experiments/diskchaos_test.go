package experiments

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clientmap/internal/churn"
	"clientmap/internal/metrics"
	"clientmap/internal/pipeline"
	"clientmap/internal/randx"
	"clientmap/internal/statefs"
	"clientmap/internal/statefsck"
	"clientmap/internal/world"
)

// The crash×disk-fault matrix: kill a campaign at a stage boundary while
// the disk misbehaves in a specific deterministic way, fsck the state
// directory, resume on a healthy disk, and require the final results to
// be byte-identical to a run that never saw a fault. Every cell also
// asserts that fsck classified the injected damage (no injected
// corruption may scan as "valid") and that the resumed state directory
// carries no litter.

// faultShape is one disk misbehaviour the matrix drives a campaign into.
type faultShape struct {
	name string
	// cfg builds the statefs fault config scoped to the kill stage's
	// checkpoint file.
	cfg func(seed randx.Seed, match string) statefs.Config
	// stopped says the faulty run ends in a clean StopAfter stop (the
	// fault is silent) rather than an injected write error.
	stopped bool
	// damaged classifies what fsck must find: the checkpoint itself
	// corrupt, or orphaned temp litter next to it.
	wantClass statefsck.Class
}

func matrixShapes() []faultShape {
	rule := func(match string) []statefs.Rule { return []statefs.Rule{{Match: match, Rate: 1}} }
	return []faultShape{
		{"torn", func(s randx.Seed, m string) statefs.Config {
			return statefs.Config{Seed: s, Torn: rule(m)}
		}, false, statefsck.ClassCorrupt},
		{"enospc", func(s randx.Seed, m string) statefs.Config {
			return statefs.Config{Seed: s, ENOSPC: rule(m)}
		}, false, statefsck.ClassOrphanTmp},
		{"rename-fail", func(s randx.Seed, m string) statefs.Config {
			return statefs.Config{Seed: s, RenameFail: rule(m)}
		}, false, statefsck.ClassOrphanTmp},
		{"bitrot", func(s randx.Seed, m string) statefs.Config {
			return statefs.Config{Seed: s, Bitrot: rule(m)}
		}, true, statefsck.ClassCorrupt},
	}
}

// checkFaultyExit asserts the faulty run died the way the shape says it
// must: a clean StopAfter stop for silent faults, an injected disk error
// for loud ones.
func checkFaultyExit(t *testing.T, shape faultShape, err error) {
	t.Helper()
	if shape.stopped {
		if !errors.Is(err, pipeline.ErrStopped) {
			t.Fatalf("%s run: got error %v, want pipeline.ErrStopped", shape.name, err)
		}
		return
	}
	if !errors.Is(err, statefs.ErrInjected) {
		t.Fatalf("%s run: got error %v, want an injected disk fault", shape.name, err)
	}
}

// checkRepair asserts fsck found and repaired the injected damage: the
// expected class on the expected file, nothing scanned as a false
// "valid", and every problem actually applied.
func checkRepair(t *testing.T, rep *statefsck.Report, shape faultShape, stage string) {
	t.Helper()
	snapRel := stage + ".snap"
	var hit *statefsck.Finding
	for i := range rep.Findings {
		f := &rep.Findings[i]
		switch shape.wantClass {
		case statefsck.ClassOrphanTmp:
			if f.Class == statefsck.ClassOrphanTmp && strings.Contains(f.Path, snapRel+".tmp-injected-") {
				hit = f
			}
		default:
			if f.Path == snapRel && f.Class != statefsck.ClassValid && f.Class != statefsck.ClassAux {
				hit = f
			}
		}
		// The injected damage must never be mistaken for a healthy
		// checkpoint.
		if f.Class == statefsck.ClassValid &&
			(strings.Contains(f.Path, ".tmp-injected-") ||
				(shape.wantClass == statefsck.ClassCorrupt && f.Path == snapRel)) {
			t.Errorf("fsck classified damaged %s as valid", f.Path)
		}
	}
	if hit == nil {
		t.Fatalf("fsck found no %s finding for %s:\n%s", shape.wantClass, snapRel, rep.Text())
	}
	if shape.wantClass == statefsck.ClassCorrupt && hit.Class != statefsck.ClassCorrupt &&
		hit.Class != statefsck.ClassBrokenChain {
		t.Errorf("damage on %s classified %s, want corrupt (or broken-chain)", snapRel, hit.Class)
	}
	if !hit.Applied {
		t.Errorf("repair for %s (%s) was not applied: %s", hit.Path, hit.Class, hit.Detail)
	}
}

// checkNoLitter walks a resumed state directory and fails on any
// leftover temp file or quarantine-escaped damage. The quarantine
// directory itself is the one place damage is allowed to rest.
func checkNoLitter(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "quarantine" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.Contains(d.Name(), ".tmp-") {
			t.Errorf("resumed state dir still holds litter %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// matrixConfig is the monolithic campaign every matrix cell runs — the
// same shape as TestKillAndResumeDeterminism's.
func matrixConfig() Config {
	cfg := DefaultConfig(randx.Seed(77), world.ScaleTiny)
	cfg.CampaignDuration = 24 * time.Hour
	cfg.Passes = 4
	cfg.TraceDuration = 6 * time.Hour
	return cfg
}

// TestDiskChaosMatrix: every (kill stage × fault shape) cell of the
// monolithic campaign. Each cell kills the campaign at the stage while
// its checkpoint write suffers the shape's fault, repairs the state
// directory, resumes on a healthy disk, and requires results identical
// to the uninterrupted reference. Under -short only the diagonal runs —
// each stage and each shape still appears at least once.
func TestDiskChaosMatrix(t *testing.T) {
	ref, err := Run(matrixConfig())
	if err != nil {
		t.Fatal(err)
	}

	stages := []string{StageCalibrate, ProbePassStage(0), ProbePassStage(2), StageDNSLogs}
	shapes := matrixShapes()
	for si, stage := range stages {
		for hi, shape := range shapes {
			if testing.Short() && si != hi {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", stage, shape.name), func(t *testing.T) {
				dir := t.TempDir()
				fcfg := matrixConfig()
				fcfg.StateDir = dir
				fcfg.StopAfter = stage
				fcfg.Metrics = metrics.NewRegistry()
				fcfg.FS = statefs.NewFaulty(shape.cfg(fcfg.Seed, stage+".snap"), nil, fcfg.Metrics)
				_, err := Run(fcfg)
				checkFaultyExit(t, shape, err)
				if injectedWriteFaults(fcfg.Metrics) == 0 {
					t.Fatal("the faulty run injected nothing — the cell proves nothing")
				}

				rep, err := statefsck.Repair(statefs.Disk{}, dir, statefsck.Options{})
				if err != nil {
					t.Fatal(err)
				}
				checkRepair(t, rep, shape, stage)

				rcfg := matrixConfig()
				rcfg.StateDir = dir
				rcfg.Resume = true
				resumed, err := Run(rcfg)
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, "clean", "resumed", ref, resumed)
				if ref.RenderAll() != resumed.RenderAll() {
					t.Error("rendered report differs from the uninterrupted run")
				}
				checkNoLitter(t, dir)
			})
		}
	}
}

// TestDiskChaosShardMatrix: the same discipline against a 3-shard
// campaign with the reliability stack on, killing one shard of a pass
// while its per-shard checkpoint suffers each fault shape. The gathered,
// resumed result must match the monolithic reference byte for byte.
func TestDiskChaosShardMatrix(t *testing.T) {
	mono, err := Run(shardBaseConfig())
	if err != nil {
		t.Fatal(err)
	}

	kills := []string{ShardStage(1, 0), ShardStage(2, 2)}
	shapes := matrixShapes()
	for ki, stage := range kills {
		for hi, shape := range shapes {
			if testing.Short() && hi%2 != ki {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", strings.ReplaceAll(stage, "/", "_"), shape.name), func(t *testing.T) {
				dir := t.TempDir()
				fcfg := shardBaseConfig()
				fcfg.Shards = 3
				fcfg.StateDir = dir
				fcfg.StopAfter = stage
				fcfg.Metrics = metrics.NewRegistry()
				fcfg.FS = statefs.NewFaulty(shape.cfg(fcfg.Seed, stage+".snap"), nil, fcfg.Metrics)
				_, err := Run(fcfg)
				checkFaultyExit(t, shape, err)
				if injectedWriteFaults(fcfg.Metrics) == 0 {
					t.Fatal("the faulty run injected nothing — the cell proves nothing")
				}

				rep, err := statefsck.Repair(statefs.Disk{}, dir, statefsck.Options{})
				if err != nil {
					t.Fatal(err)
				}
				checkRepair(t, rep, shape, stage)

				rcfg := shardBaseConfig()
				rcfg.Shards = 3
				rcfg.StateDir = dir
				rcfg.Resume = true
				resumed, err := Run(rcfg)
				if err != nil {
					t.Fatal(err)
				}
				assertShardEqual(t, "chaos-resumed", mono, resumed)
				checkNoLitter(t, dir)
			})
		}
	}
}

// TestDiskChaosStreamMatrix: a 24-sim-hour streaming campaign killed at
// two different hours under each fault shape, repaired, and resumed —
// rolling views, decay ledger, metrics and the final artifact must be
// byte-identical to the uninterrupted stream.
func TestDiskChaosStreamMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("24 sim-hour streams")
	}
	ref, err := RunStream(streamTestConfig(t))
	if err != nil {
		t.Fatal(err)
	}

	for _, hour := range []int{1, 13} {
		stage := StreamHourStage(hour)
		for _, shape := range matrixShapes() {
			t.Run(fmt.Sprintf("%s/%s", stage, shape.name), func(t *testing.T) {
				dir := t.TempDir()
				fcfg := streamTestConfig(t)
				fcfg.StateDir = dir
				fcfg.StopAfter = stage
				fcfg.FS = statefs.NewFaulty(shape.cfg(fcfg.Seed, stage+".snap"), nil, nil)
				_, err := RunStream(fcfg)
				checkFaultyExit(t, shape, err)

				rep, err := statefsck.Repair(statefs.Disk{}, dir, statefsck.Options{})
				if err != nil {
					t.Fatal(err)
				}
				checkRepair(t, rep, shape, stage)

				rcfg := streamTestConfig(t)
				rcfg.StateDir = dir
				rcfg.Resume = true
				resumed, err := RunStream(rcfg)
				if err != nil {
					t.Fatal(err)
				}
				compareStreams(t, "uninterrupted", stage+"/"+shape.name, ref, resumed)
				checkNoLitter(t, dir)
			})
		}
	}
}

// TestDiskChaosStreamSmoke is the -short face of the stream matrix: a
// 6-hour stream, one loud and one silent fault shape, full repair and
// byte-identical resume. Cheap enough for the CI chaos job under -race.
func TestDiskChaosStreamSmoke(t *testing.T) {
	ch, err := churn.Parse("realloc=2@2h,chromium=off@3h")
	if err != nil {
		t.Fatal(err)
	}
	base := StreamConfig{Seed: randx.Seed(7), Scale: world.ScaleTiny, Hours: 6, Churn: ch}
	ref, err := RunStream(base)
	if err != nil {
		t.Fatal(err)
	}

	stage := StreamHourStage(3)
	for _, shape := range matrixShapes() {
		if shape.name == "enospc" || shape.name == "rename-fail" {
			continue // the loud-litter path is covered by torn + the monolithic matrix
		}
		t.Run(shape.name, func(t *testing.T) {
			dir := t.TempDir()
			fcfg := base
			fcfg.StateDir = dir
			fcfg.StopAfter = stage
			fcfg.FS = statefs.NewFaulty(shape.cfg(base.Seed, stage+".snap"), nil, nil)
			_, err := RunStream(fcfg)
			checkFaultyExit(t, shape, err)

			rep, err := statefsck.Repair(statefs.Disk{}, dir, statefsck.Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkRepair(t, rep, shape, stage)

			rcfg := base
			rcfg.StateDir = dir
			rcfg.Resume = true
			resumed, err := RunStream(rcfg)
			if err != nil {
				t.Fatal(err)
			}
			compareStreams(t, "uninterrupted", shape.name, ref, resumed)
			checkNoLitter(t, dir)
		})
	}
}

// TestDiskChaosChainTruncation: corrupting an early pass delta of a
// COMPLETE campaign must cascade — fsck quarantines the corrupt link and
// every delta chained past it — and a resume rebuilds exactly the
// truncated suffix, converging byte-identical to the original.
func TestDiskChaosChainTruncation(t *testing.T) {
	cfg := matrixConfig()
	dir := t.TempDir()
	ccfg := cfg
	ccfg.StateDir = dir
	ref, err := Run(ccfg)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte of pass 1's checkpoint — the silent rot fsck
	// exists to catch. The last byte before the checksum is always
	// payload territory.
	path := filepath.Join(dir, ProbePassStage(1)+".snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := statefsck.Repair(statefs.Disk{}, dir, statefsck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	classes := map[string]statefsck.Class{}
	for _, f := range rep.Findings {
		classes[f.Path] = f.Class
	}
	if got := classes[ProbePassStage(1)+".snap"]; got != statefsck.ClassCorrupt {
		t.Errorf("pass 1 classified %s, want corrupt\n%s", got, rep.Text())
	}
	for _, k := range []int{2, 3} {
		if got := classes[ProbePassStage(k)+".snap"]; got != statefsck.ClassBrokenChain {
			t.Errorf("pass %d classified %s, want broken-chain (chained past the rot)", k, got)
		}
	}
	if got := classes[ProbePassStage(0)+".snap"]; got != statefsck.ClassValid {
		t.Errorf("pass 0 classified %s, want valid (before the rot)", got)
	}

	rcfg := cfg
	rcfg.StateDir = dir
	rcfg.Resume = true
	rlog := &logCapture{}
	rcfg.Log = rlog.logf
	resumed, err := Run(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "original", "truncated+resumed", ref, resumed)
	if ref.RenderAll() != resumed.RenderAll() {
		t.Error("rendered report differs after chain truncation and resume")
	}
	// The healthy prefix restored; the truncated suffix rebuilt.
	if n := rlog.count("stage " + ProbePassStage(0) + ": restored checkpoint"); n != 1 {
		t.Errorf("pass 0 restored %d times, want 1", n)
	}
	for _, k := range []int{1, 2, 3} {
		if n := rlog.count("stage " + ProbePassStage(k) + ": running"); n != 1 {
			t.Errorf("pass %d ran %d times, want 1 (its checkpoint was quarantined)", k, n)
		}
	}
}

// TestResumeSweepsLitter: a resumed run's automatic fsck clears aged
// temp litter and satisfied steal claims, so operators never hand-clean
// a state directory after a crash loop.
func TestResumeSweepsLitter(t *testing.T) {
	cfg := matrixConfig()
	dir := t.TempDir()
	ccfg := cfg
	ccfg.StateDir = dir
	if _, err := Run(ccfg); err != nil {
		t.Fatal(err)
	}

	// Age-old litter from crashed writers, plus a satisfied claim for a
	// stage whose checkpoint is healthy on disk.
	old := time.Now().Add(-time.Hour)
	litter := []string{
		filepath.Join(dir, ProbePassStage(2)+".snap.tmp-injected-0"),
		filepath.Join(dir, "calibration.snap.tmp-4815162342"),
	}
	for _, p := range litter {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	shardDir := filepath.Join(dir, "shards")
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	claim := filepath.Join(shardDir, ProbePassStage(2)+".steal")
	if err := os.WriteFile(claim, []byte("0\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.StateDir = dir
	rcfg.Resume = true
	if _, err := Run(rcfg); err != nil {
		t.Fatal(err)
	}

	for _, p := range append(litter, claim) {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("resume left %s behind (stat err %v)", p, err)
		}
	}
	checkNoLitter(t, dir)
}

// TestTraceWriteCrossesStateFS: the span log is written through the
// state-I/O seam, so -disk-faults reaches metrics/trace.jsonl — and a
// failed trace write costs the run nothing, because the trace is
// observability rather than a result.
func TestTraceWriteCrossesStateFS(t *testing.T) {
	ref, err := Run(matrixConfig())
	if err != nil {
		t.Fatal(err)
	}
	dcfg, err := statefs.Parse("torn=trace.jsonl@1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := matrixConfig()
	cfg.StateDir = t.TempDir()
	cfg.Metrics = metrics.NewRegistry()
	cfg.FS = statefs.NewFaulty(dcfg, nil, cfg.Metrics)
	got, err := Run(cfg)
	if err != nil {
		t.Fatalf("a torn trace write failed the run: %v", err)
	}
	if n := cfg.Metrics.Snapshot()[statefs.KeyTorn]; n != 1 {
		t.Fatalf("injector tore %d writes, want the one trace write", n)
	}
	compareResults(t, "in-memory", "torn-trace", ref, got)
	if ref.RenderAll() != got.RenderAll() {
		t.Error("rendered report differs from the in-memory run")
	}
}

// injectedWriteFaults sums the torn, out-of-space, failed-rename and
// bit-rotted writes a Faulty counted into reg.
func injectedWriteFaults(reg *metrics.Registry) int64 {
	led := reg.Snapshot()
	return led[statefs.KeyTorn] + led[statefs.KeyENOSPC] + led[statefs.KeyRenameFail] + led[statefs.KeyBitrot]
}
