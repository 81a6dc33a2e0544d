package experiments

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"clientmap/internal/pipeline"
	"clientmap/internal/randx"
	"clientmap/internal/statefsck"
	"clientmap/internal/world"
)

// logCapture is a goroutine-safe Config.Log sink (stages log concurrently).
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (l *logCapture) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logCapture) count(substr string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

// TestKillAndResumeDeterminism: a campaign killed after probing pass 1 and
// resumed in a fresh process must finish with results identical — down to
// individual hit timestamps and the rendered report bytes — to a run that
// was never interrupted. This is the pipeline's core guarantee: the
// checkpoint boundary is invisible in the output.
func TestKillAndResumeDeterminism(t *testing.T) {
	cfg := DefaultConfig(randx.Seed(77), world.ScaleTiny)
	cfg.CampaignDuration = 24 * time.Hour
	cfg.Passes = 4
	cfg.TraceDuration = 6 * time.Hour

	// Reference: one uninterrupted, in-memory run.
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// "Kill" the run right after pass 1 checkpoints.
	dir := t.TempDir()
	kcfg := cfg
	kcfg.StateDir = dir
	kcfg.StopAfter = ProbePassStage(1)
	if _, err := Run(kcfg); !errors.Is(err, pipeline.ErrStopped) {
		t.Fatalf("stopped run: got error %v, want pipeline.ErrStopped", err)
	}

	// Resume in a "fresh process": same config, Resume on.
	rcfg := cfg
	rcfg.StateDir = dir
	rcfg.Resume = true
	rlog := &logCapture{}
	rcfg.Log = rlog.logf
	resumed, err := Run(rcfg)
	if err != nil {
		t.Fatal(err)
	}

	compareResults(t, "full", "resumed", full, resumed)
	if full.RenderAll() != resumed.RenderAll() {
		t.Error("rendered reports differ between the uninterrupted and the resumed run")
	}

	// The resume must actually have skipped the killed run's passes and
	// re-probed the rest.
	if n := rlog.count("probe-pass-1: restored checkpoint"); n != 1 {
		t.Errorf("probe-pass-1 restored %d times, want 1", n)
	}
	if n := rlog.count("probe-pass-3: running"); n != 1 {
		t.Errorf("probe-pass-3 ran %d times, want 1", n)
	}

	// The DITL traces lived in a temp dir: the state dir keeps the
	// crawl's checkpoint alone, the same bytes the all-letter generation
	// that kept its traces in StateDir/traces used to write.
	if _, err := os.Stat(filepath.Join(dir, "traces")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("state dir holds traces/ (stat: %v)", err)
	}
	ditl, err := os.ReadFile(filepath.Join(dir, StageDNSLogs+".snap"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(ditl)); got != ditlCheckpointSHA256 {
		t.Errorf("%s checkpoint sha256 %s, want %s", StageDNSLogs, got, ditlCheckpointSHA256)
	}

	// A state dir that an older build left a traces/ dir in still
	// restores every stage, and statefsck keeps that dir as aux.
	legacy := filepath.Join(dir, "traces")
	if err := os.MkdirAll(legacy, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(legacy, "root-J.ditl"), []byte("DITL1\x00J"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A third run over the now-complete state directory restores every
	// persisted stage: no pre-scan, calibration or probing re-runs. The
	// dataset views are ephemeral and rebuild from the restored inputs.
	tlog := &logCapture{}
	tcfg := rcfg
	tcfg.Log = tlog.logf
	third, err := Run(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{StagePreScan, StageCalibrate, ProbePassStage(0), ProbePassStage(3), StageDNSLogs, StageBaselines} {
		if n := tlog.count("stage " + stage + ": restored checkpoint"); n != 1 {
			t.Errorf("stage %s restored %d times on the complete state dir, want 1", stage, n)
		}
		if n := tlog.count("stage " + stage + ": running"); n != 0 {
			t.Errorf("stage %s re-ran on the complete state dir", stage)
		}
	}
	if n := tlog.count("stage " + StageViews + ": running"); n != 1 {
		t.Errorf("stage %s ran %d times on the complete state dir, want 1", StageViews, n)
	}
	if full.RenderAll() != third.RenderAll() {
		t.Error("fully-restored run renders a different report")
	}
	rep, err := statefsck.Scan(nil, dir, statefsck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Problems() != 0 {
		t.Errorf("statefsck finds problems in the state dir:\n%s", rep.Text())
	}
	if !slices.Contains(rep.Findings, statefsck.Finding{Path: "traces/", Class: statefsck.ClassAux, Action: statefsck.ActionKeep, Detail: "DITL root traces an older build left"}) {
		t.Errorf("statefsck does not keep the legacy traces/ dir as aux:\n%s", rep.Text())
	}
}

// ditlCheckpointSHA256 pins the ditl-dnslogs checkpoint of
// TestKillAndResumeDeterminism's configuration: generating only the
// crawled letters must not move a byte of what the crawl finds.
const ditlCheckpointSHA256 = "fb240fb1a702940d75740d9aebf470ec405851df5a3888f38a6e81dfc02404f4"

// TestResumeIgnoresStaleCheckpoints: checkpoints from a different
// configuration (here: another seed) must be rebuilt, not reused —
// fingerprints tie every artifact to the inputs that produced it.
func TestResumeIgnoresStaleCheckpoints(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig(randx.Seed(5), world.ScaleTiny)
	cfg.CampaignDuration = 12 * time.Hour
	cfg.Passes = 2
	cfg.TraceDuration = 6 * time.Hour
	cfg.StateDir = dir
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Seed = randx.Seed(6)
	other.Resume = true
	lg := &logCapture{}
	other.Log = lg.logf
	fresh, err := Run(other)
	if err != nil {
		t.Fatal(err)
	}
	if n := lg.count("restored checkpoint"); n != 0 {
		t.Errorf("restored %d checkpoints across seeds, want 0", n)
	}
	if n := lg.count("stale"); n == 0 {
		t.Error("expected stale-fingerprint log lines")
	}

	// And the rebuilt results must match a clean run of the new seed.
	clean := other
	clean.StateDir, clean.Resume, clean.Log = "", false, nil
	want, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "clean", "rebuilt", want, fresh)
}

// TestWithDefaults: zero fields default independently; set fields survive.
// Run used to replace the entire config with DefaultConfig whenever
// CampaignDuration was unset, silently dropping caller-set fields.
func TestWithDefaults(t *testing.T) {
	d := DefaultConfig(randx.Seed(1), world.ScaleTiny)

	got := Config{Seed: randx.Seed(1), Scale: world.ScaleTiny, Passes: 3, PerSourceHourCap: 2}.withDefaults()
	if got.CampaignDuration != d.CampaignDuration {
		t.Errorf("CampaignDuration = %v, want default %v", got.CampaignDuration, d.CampaignDuration)
	}
	if got.Passes != 3 {
		t.Errorf("Passes = %d, want caller's 3", got.Passes)
	}
	if got.PerSourceHourCap != 2 {
		t.Errorf("PerSourceHourCap = %d, want caller's 2", got.PerSourceHourCap)
	}
	if got.TraceDuration != d.TraceDuration {
		t.Errorf("TraceDuration = %v, want default %v", got.TraceDuration, d.TraceDuration)
	}

	if all := (Config{Seed: randx.Seed(1), Scale: world.ScaleTiny}).withDefaults(); all.Passes != d.Passes ||
		all.CampaignDuration != d.CampaignDuration || all.TraceDuration != d.TraceDuration ||
		all.PerSourceHourCap != d.PerSourceHourCap {
		t.Errorf("zero config defaults = %+v, want %+v", all, d)
	}
}

// checkDeltasReleased asserts that every probing step but the last has
// dropped its delta (the checkpoint holds it, the campaign has folded
// it) and that the last still holds its own. A gather drops its shards'
// results itself, built or restored: pipeline's TestInputsRunWhenStale
// and TestInputsDroppedWhenGateRestores pin that.
func checkDeltasReleased(t *testing.T, label string, c *chain) {
	t.Helper()
	for k, s := range c.steps {
		a := s.Out()
		switch last := k == len(c.steps)-1; {
		case a == nil || a.Camp == nil:
			t.Errorf("%s: step %s has no campaign", label, s.Name())
		case last && (a.Pass == nil || (c.setupName == StageStreamSetup && a.Hour == nil)):
			t.Errorf("%s: the last step %s dropped its delta", label, s.Name())
		case !last && (a.Pass != nil || a.Hour != nil):
			t.Errorf("%s: step %s still holds its delta after the next step ran", label, s.Name())
		}
	}
}

// TestStepsReleaseCheckpointedDeltas: once step k+1 has built or restored,
// step k's artifact keeps only its campaign — on a fresh batch run, on a
// resumed sharded one (restored steps, then built ones) and on a stream. Four
// tiny runs, about 1.5 s in all on two vCPUs.
func TestStepsReleaseCheckpointedDeltas(t *testing.T) {
	cfg := DefaultConfig(randx.Seed(77), world.ScaleTiny)
	cfg.CampaignDuration = 24 * time.Hour
	cfg.Passes = 4
	cfg.TraceDuration = 6 * time.Hour
	cfg.StateDir = t.TempDir()
	batch := func(cfg Config) *batchRun {
		cfg, err := cfg.prepare(false)
		if err != nil {
			t.Fatal(err)
		}
		br := newBatchRun(cfg)
		if err := br.runner.Run(noCtx()); err != nil && !errors.Is(err, pipeline.ErrStopped) {
			t.Fatal(err)
		}
		return br
	}
	checkDeltasReleased(t, "fresh", batch(cfg).chain)

	kcfg := cfg
	kcfg.StateDir = t.TempDir()
	kcfg.Shards, kcfg.ShardIndex = 2, -1
	kcfg.StopAfter = ProbePassStage(1)
	batch(kcfg)
	kcfg.StopAfter, kcfg.Resume = "", true
	rlog := &logCapture{}
	kcfg.Log = rlog.logf
	checkDeltasReleased(t, "resumed", batch(kcfg).chain)
	if rlog.count("probe-pass-1: restored checkpoint") != 1 || rlog.count("probe-pass-2: running") != 1 {
		t.Error("the resumed run did not restore pass 1 and build pass 2")
	}

	scfg := StreamConfig{Seed: randx.Seed(2021), Scale: world.ScaleTiny, Hours: 6}
	scfg, err := scfg.prepare(true)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := newStreamRun(scfg)
	if err := sc.runner.Run(noCtx()); err != nil {
		t.Fatal(err)
	}
	checkDeltasReleased(t, "stream", sc)
}
