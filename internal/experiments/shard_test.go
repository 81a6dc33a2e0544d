package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/faults"
	"clientmap/internal/health"
	"clientmap/internal/pipeline"
	"clientmap/internal/randx"
	"clientmap/internal/statefs"
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

// readCounter is the disk, counting the bytes read through it.
type readCounter struct {
	statefs.Disk
	bytes atomic.Int64
}

func (c *readCounter) ReadFile(path string) ([]byte, error) {
	data, err := c.Disk.ReadFile(path)
	c.bytes.Add(int64(len(data)))
	return data, err
}

// resumeSharded resumes cfg's campaign from dir at the given shard count
// and returns the bytes the resume read: its state repair's and its
// restores' alike.
func resumeSharded(tb testing.TB, cfg Config, dir string, shards int) (*Results, int64, *logCapture) {
	tb.Helper()
	log, reads := &logCapture{}, &readCounter{}
	cfg.Shards, cfg.StateDir, cfg.Resume, cfg.Log, cfg.FS = shards, dir, true, log.logf, reads
	res, err := Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return res, reads.bytes.Load(), log
}

// shardRestores counts the shard checkpoints a run logged as restored.
func (l *logCapture) shardRestores() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, "/shard-") && strings.Contains(line, ": restored checkpoint") {
			n++
		}
	}
	return n
}

// ran returns the stages a run's log says it built.
func (l *logCapture) ran() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, line := range l.lines {
		if m := stageRunningLine.FindStringSubmatch(line); m != nil {
			out = append(out, m[1])
		}
	}
	return out
}

// TestShardedResume: a step checkpoint does not depend on the shard
// count. A complete 3-shard state directory resumes without restoring a
// shard checkpoint, at 3 shards and at 1 or 5, and a monolithic one
// resumes at 3: each rebuilds only the four ephemeral stages. A torn
// pass-1 gather is quarantined by the resume's repair and rebuilt from
// its shards' checkpoints, with the gathers after it, re-probing
// nothing. Every resume is byte-identical to the monolithic run. Seven
// tiny runs, two of them fresh: about 2 s on two vCPUs.
func TestShardedResume(t *testing.T) {
	cfg := shardBaseConfig()
	monoDir, dir := t.TempDir(), t.TempDir()
	mcfg := cfg
	mcfg.StateDir = monoDir
	mono, err := Run(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.Shards, scfg.StateDir = 3, dir
	if _, err := Run(scfg); err != nil {
		t.Fatal(err)
	}

	ephemeral := map[string]bool{StageWorld: true, StageSetup: true, StageViews: true, StageFinish: true}
	for _, c := range []struct {
		dir    string
		shards int
		label  string
	}{{dir, 3, "3 shards"}, {dir, 1, "3 shards at 1"}, {dir, 5, "3 shards at 5"}, {monoDir, 3, "monolithic at 3"}} {
		res, _, log := resumeSharded(t, cfg, c.dir, c.shards)
		assertShardEqual(t, c.label, mono, res)
		if n := log.shardRestores(); n != 0 {
			t.Errorf("%s: the resume restored %d shard checkpoints, want 0", c.label, n)
		}
		for _, s := range log.ran() {
			if !ephemeral[s] {
				t.Errorf("%s: the resume ran %s", c.label, s)
			}
		}
		if n, want := log.count(": restored checkpoint"), 4+cfg.Passes; n != want {
			t.Errorf("%s: %d stages restored, want all %d persisted ones", c.label, n, want)
		}
	}

	gather := filepath.Join(dir, ProbePassStage(1)+".snap")
	data, err := os.ReadFile(gather)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gather, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	res, _, log := resumeSharded(t, cfg, dir, 3)
	assertShardEqual(t, "torn gather", mono, res)
	if n, want := log.shardRestores(), 3*(cfg.Passes-1); n != want {
		t.Errorf("torn gather: %d shard checkpoints restored, want %d (passes 1…%d)", n, want, cfg.Passes-1)
	}
	for _, s := range log.ran() {
		if strings.Contains(s, "/shard-") {
			t.Errorf("torn gather: the resume re-probed %s", s)
		}
	}
	if log.count(ProbePassStage(1)+": running") != 1 {
		t.Error("torn gather: the pass-1 gather did not rerun")
	}
}

// BenchmarkShardedResume resumes a complete tiny 3-shard state directory
// and reports the megabytes it read, its state repair's checksum pass
// included, and how many shard checkpoints it restored: every gather
// restores, so none.
func BenchmarkShardedResume(b *testing.B) {
	cfg := shardBaseConfig()
	dir := b.TempDir()
	wcfg := cfg
	wcfg.Shards, wcfg.StateDir = 3, dir
	if _, err := Run(wcfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var bytes, shards int64
	for i := 0; i < b.N; i++ {
		_, read, log := resumeSharded(b, cfg, dir, 3)
		bytes += read
		shards += int64(log.shardRestores())
	}
	b.ReportMetric(float64(bytes)/1e6/float64(b.N), "pipeline.resume_read_mb")
	b.ReportMetric(float64(shards)/float64(b.N), "pipeline.shard_restores")
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
