package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/faults"
	"clientmap/internal/health"
	"clientmap/internal/pipeline"
	"clientmap/internal/randx"
	"clientmap/internal/world"
)

// shardBaseConfig is the campaign every shard test runs: tiny but with
// the full reliability stack on (faults, retries, degradation), so the
// scatter/gather path is exercised against the hardest merge — breaker
// windows, hedge ledgers and failover routing, not just hit counts.
func shardBaseConfig() Config {
	cfg := DefaultConfig(randx.Seed(909), world.ScaleTiny)
	cfg.CampaignDuration = 24 * time.Hour
	cfg.Passes = 4
	cfg.TraceDuration = 6 * time.Hour
	cfg.Faults = faults.Config{Loss: 0.02}
	cfg.Retry = cacheprobe.Retry{Attempts: 3, Backoff: 100 * time.Millisecond}
	cfg.Health = health.Default()
	return cfg
}

// assertShardEqual asserts a sharded run reproduced the monolithic run
// exactly: campaign evidence, rendered report bytes, metrics ledger JSON.
func assertShardEqual(t *testing.T, label string, mono, sharded *Results) {
	t.Helper()
	compareResults(t, "monolithic", label, mono, sharded)
	if mono.RenderAll() != sharded.RenderAll() {
		t.Errorf("%s: rendered report differs from the monolithic run", label)
	}
	if string(mono.MetricsJSON()) != string(sharded.MetricsJSON()) {
		t.Errorf("%s: metrics ledger JSON differs from the monolithic run", label)
	}
	if mono.Reliability() != sharded.Reliability() {
		t.Errorf("%s: fault ledger differs:\nmonolithic %+v\n%s %+v", label, mono.Reliability(), label, sharded.Reliability())
	}
}

// TestShardScatterGatherDeterminism: splitting every pass into N scatter
// shards is invisible in the output — for any shard count, the gathered
// campaign, the rendered report and the metrics ledger are byte-identical
// to the monolithic run's. This is the tentpole guarantee of the
// shard/scatter/gather decomposition.
func TestShardScatterGatherDeterminism(t *testing.T) {
	base := shardBaseConfig()
	mono, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if mono.Reliability().CacheProbing.RetriesSpent == 0 {
		t.Fatal("baseline exercised no retries — the shard tests would prove nothing")
	}
	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := shardBaseConfig()
			cfg.Shards = shards
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertShardEqual(t, fmt.Sprintf("shards=%d", shards), mono, got)
		})
	}
}

// TestShardKillAndResume: killing a sharded campaign right after one
// shard of pass 1 checkpoints, then resuming, must finish byte-identical
// to the monolithic run — the per-shard checkpoint boundary is invisible
// exactly like the per-pass one.
func TestShardKillAndResume(t *testing.T) {
	mono, err := Run(shardBaseConfig())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	kcfg := shardBaseConfig()
	kcfg.Shards = 3
	kcfg.StateDir = dir
	kcfg.StopAfter = ShardStage(1, 0)
	if _, err := Run(kcfg); !errors.Is(err, pipeline.ErrStopped) {
		t.Fatalf("stopped run: got error %v, want pipeline.ErrStopped", err)
	}

	rcfg := shardBaseConfig()
	rcfg.Shards = 3
	rcfg.StateDir = dir
	rcfg.Resume = true
	rlog := &logCapture{}
	rcfg.Log = rlog.logf
	resumed, err := Run(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	assertShardEqual(t, "killed+resumed", mono, resumed)

	// The kill point's shard must have been restored, not re-probed.
	if n := rlog.count("probe-pass-1/shard-0: restored checkpoint"); n != 1 {
		t.Errorf("probe-pass-1/shard-0 restored %d times, want 1", n)
	}
}

// TestShardConcurrentRunners: three shard-runner processes (modelled as
// three Run calls with separate registries and probers, sharing only the
// state directory) execute one campaign cooperatively. Every runner's
// gathered result must equal the monolithic run's.
func TestShardConcurrentRunners(t *testing.T) {
	mono, err := Run(shardBaseConfig())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	const runners = 3
	results := make([]*Results, runners)
	errs := make([]error, runners)
	var wg sync.WaitGroup
	for i := 0; i < runners; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := shardBaseConfig()
			cfg.Shards = runners
			cfg.ShardIndex = i
			cfg.StateDir = dir
			results[i], errs[i] = Run(cfg)
		}()
	}
	wg.Wait()
	for i := 0; i < runners; i++ {
		if errs[i] != nil {
			t.Fatalf("runner %d: %v", i, errs[i])
		}
		assertShardEqual(t, fmt.Sprintf("runner %d", i), mono, results[i])
	}
}

// TestShardStragglerSteal: a lone surviving runner must pick up every
// straggler shard its dead peers owned — claiming each exactly once
// through the work-stealing gate — and still finish byte-identical.
func TestShardStragglerSteal(t *testing.T) {
	mono, err := Run(shardBaseConfig())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := shardBaseConfig()
	cfg.Shards = 3
	cfg.ShardIndex = 0
	cfg.StateDir = dir
	cfg.ShardStealAfter = 10 * time.Millisecond
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertShardEqual(t, "lone runner", mono, got)

	// Stages owned by the dead runners 1 and 2 must have been claimed
	// through steal files, and every claim must name runner 0.
	entries, err := os.ReadDir(filepath.Join(dir, "shards"))
	if err != nil {
		t.Fatalf("work-stealing claim directory: %v", err)
	}
	claims := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".steal") {
			continue
		}
		claims++
		b, err := os.ReadFile(filepath.Join(dir, "shards", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSpace(string(b)); got != "0" {
			t.Errorf("claim %s names runner %q, want 0", e.Name(), got)
		}
	}
	if claims == 0 {
		t.Error("no .steal claims written — the lone runner cannot have stolen its peers' stages")
	}
}

// TestPassCheckpointSizeFlat: a probing pass checkpoints only its own
// PassDelta, so per-pass checkpoint size must track the pass — flat
// across the campaign — instead of growing with the accumulated
// evidence like the old cumulative snapshots did.
func TestPassCheckpointSizeFlat(t *testing.T) {
	dir := t.TempDir()
	cfg := shardBaseConfig()
	cfg.Passes = 6
	cfg.StateDir = dir
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	sizes := make([]int64, cfg.Passes)
	for k := 0; k < cfg.Passes; k++ {
		fi, err := os.Stat(filepath.Join(dir, ProbePassStage(k)+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		sizes[k] = fi.Size()
	}
	t.Logf("per-pass checkpoint bytes: %v", sizes)

	// Every pass within ±10% of the median pass.
	sorted := append([]int64(nil), sizes...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	median := float64(sorted[len(sorted)/2])
	for k, s := range sizes {
		if f := float64(s); f < 0.9*median || f > 1.1*median {
			t.Errorf("pass %d checkpoint is %d bytes, outside ±10%% of the median %.0f — per-pass deltas must stay flat", k, s, median)
		}
	}
}

// ShardStage returns the checkpoint stage name of scatter shard i of
// probing pass k (only registered when Config.Shards > 1), as
// pipeline.FanOut names it — the StopAfter target of distributed
// kill/resume tests.
func ShardStage(k, i int) string { return fmt.Sprintf("%s/shard-%d", ProbePassStage(k), i) }
