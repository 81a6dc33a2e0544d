package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"clientmap/internal/pipeline"
	"clientmap/internal/randx"
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

	// A third run over the now-complete state directory restores every
	// persisted stage: no pre-scan, calibration or probing re-runs.
	tlog := &logCapture{}
	tcfg := rcfg
	tcfg.Log = tlog.logf
	third, err := Run(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{StagePreScan, StageCalibrate, ProbePassStage(0), ProbePassStage(3), StageDNSLogs, StageBaselines, StageViews} {
		if n := tlog.count("stage " + stage + ": restored checkpoint"); n != 1 {
			t.Errorf("stage %s restored %d times on the complete state dir, want 1", stage, n)
		}
		if n := tlog.count("stage " + stage + ": running"); n != 0 {
			t.Errorf("stage %s re-ran on the complete state dir", stage)
		}
	}
	if full.RenderAll() != third.RenderAll() {
		t.Error("fully-restored run renders a different report")
	}
}

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
