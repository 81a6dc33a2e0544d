package experiments

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"clientmap/internal/churn"
	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/faults"
	"clientmap/internal/health"
	"clientmap/internal/randx"
	"clientmap/internal/world"
)

const goldenFingerprintsPath = "testdata/golden_fingerprints.json"

var stageRunningLine = regexp.MustCompile(`^stage (\S+): running \(fingerprint ([0-9a-f]+)\)$`)

// stageFingerprints collects the (stage name → fingerprint) pairs a run
// logs. Stages log from concurrent goroutines, hence the lock.
type stageFingerprints struct {
	mu  sync.Mutex
	fps map[string]string
}

func (s *stageFingerprints) logf(format string, args ...any) {
	m := stageRunningLine.FindStringSubmatch(fmt.Sprintf(format, args...))
	if m == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fps == nil {
		s.fps = map[string]string{}
	}
	s.fps[m[1]] = m[2]
}

// TestStageFingerprintsPinned pins every stage's derived fingerprint for
// a monolithic batch, a 3-shard batch and a 3-hour stream. A stage's
// fingerprint hashes its name, codec identity, config fingerprint and
// every upstream checkpoint's payload hash, and resume restores a
// checkpoint only on an exact match — so an unchanged corpus means a
// state directory written by an earlier build still resumes, stage for
// stage, and a changed one means every operator's checkpoints went stale.
// Regenerate (`make golden-update`) only for a change that is meant to
// invalidate them. It also asserts the invariant behind resuming at a
// different shard count: a gather leaves its shards out of its
// fingerprint, so every non-shard stage of the sharded run has its
// monolithic fingerprint.
func TestStageFingerprintsPinned(t *testing.T) {
	batch := DefaultConfig(randx.Seed(909), world.ScaleTiny)
	batch.CampaignDuration = 24 * time.Hour
	batch.Passes = 3
	batch.TraceDuration = 6 * time.Hour
	batch.Faults = faults.Config{Loss: 0.02}
	batch.Retry = cacheprobe.Retry{Attempts: 3, Backoff: 100 * time.Millisecond}
	batch.Health = health.Default()

	ch, err := churn.Parse("realloc=2@1h,pop=fra@1h+1h,chromium=off@2h")
	if err != nil {
		t.Fatal(err)
	}

	got := map[string]map[string]string{}
	for _, shards := range []int{1, 3} {
		var rec stageFingerprints
		cfg := batch
		cfg.Shards = shards
		cfg.StateDir = t.TempDir()
		cfg.Log = rec.logf
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("batch shards=%d", shards)] = rec.fps
	}
	var rec stageFingerprints
	if _, err := RunStream(StreamConfig{
		Seed: randx.Seed(909), Scale: world.ScaleTiny, Hours: 3, Churn: ch,
		Faults: faults.Config{Loss: 0.02}, StateDir: t.TempDir(), Log: rec.logf,
	}); err != nil {
		t.Fatal(err)
	}
	got["stream hours=3"] = rec.fps

	// A step checkpoint is shard-count independent: every stage of the
	// sharded run but its shards has its monolithic fingerprint.
	for stage, fp := range got["batch shards=3"] {
		if mono := got["batch shards=1"][stage]; !strings.Contains(stage, "/shard-") && fp != mono {
			t.Errorf("batch shards=3: stage %s fingerprint %q, shards=1 has %q", stage, fp, mono)
		}
	}

	var want map[string]map[string]string
	if !goldenLoad(t, goldenFingerprintsPath, got, &want) {
		return
	}
	for run, stages := range want {
		for stage, fp := range stages {
			if g := got[run][stage]; g != fp {
				t.Errorf("%s: stage %s fingerprint %q, golden %q", run, stage, g, fp)
			}
		}
	}
	for run, stages := range got {
		for stage := range stages {
			if _, ok := want[run][stage]; !ok {
				t.Errorf("%s: stage %s is not in the golden corpus", run, stage)
			}
		}
	}
}
