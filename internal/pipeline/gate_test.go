package pipeline

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clientmap/internal/statefs"
)

// recordingGate is a scripted Gate: per-stage answers, with every
// Acquire call recorded.
type recordingGate struct {
	mu    sync.Mutex
	allow func(stage string, calls int) bool
	calls map[string]int
}

func newRecordingGate(allow func(stage string, calls int) bool) *recordingGate {
	return &recordingGate{allow: allow, calls: map[string]int{}}
}

func (g *recordingGate) Acquire(stage string) bool {
	g.mu.Lock()
	g.calls[stage]++
	n := g.calls[stage]
	g.mu.Unlock()
	return g.allow(stage, n)
}

func (g *recordingGate) count(stage string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls[stage]
}

// TestGateOwnerBuildsImmediately: a stage the gate grants on the first
// ask builds without waiting; ephemeral stages never consult the gate.
func TestGateOwnerBuildsImmediately(t *testing.T) {
	gate := newRecordingGate(func(string, int) bool { return true })
	ran := counters()
	r, c := chain(Options{Dir: t.TempDir(), Resume: true, Gate: gate, GatePoll: time.Millisecond}, ran)
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Out() != 111 {
		t.Fatalf("output = %d, want 111", c.Out())
	}
	if *ran["a"] != 1 || *ran["b"] != 1 || *ran["c"] != 1 {
		t.Errorf("builds: %d/%d/%d, want 1/1/1", *ran["a"], *ran["b"], *ran["c"])
	}
	if got := gate.count("a"); got != 1 {
		t.Errorf("gate asked %d times for stage a, want 1", got)
	}
	if got := gate.count("eph"); got != 0 {
		t.Errorf("ephemeral stage consulted the gate %d times, want 0", got)
	}
}

// TestGateWaitsForOwnersCheckpoint: a runner denied a stage polls until
// the owner's checkpoint lands, then restores it instead of building.
func TestGateWaitsForOwnersCheckpoint(t *testing.T) {
	dir := t.TempDir()
	gate := newRecordingGate(func(string, int) bool { return false })
	ran := counters()
	lg := &testLog{}
	r, c := chain(Options{Dir: dir, Resume: true, Gate: gate, GatePoll: time.Millisecond, Log: lg.logf}, ran)

	done := make(chan error, 1)
	go func() { done <- r.Run(context.Background()) }()

	// Play the owner from this side: once the waiter is polling, produce
	// the checkpoints with an ungated runner over the same directory.
	time.Sleep(10 * time.Millisecond)
	ownerRan := counters()
	ro, _ := chain(Options{Dir: dir, Resume: true}, ownerRan)
	if err := ro.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if c.Out() != 111 {
		t.Fatalf("waiter output = %d, want 111", c.Out())
	}
	if *ran["a"] != 0 || *ran["b"] != 0 || *ran["c"] != 0 {
		t.Errorf("denied runner built stages itself: %d/%d/%d, want 0/0/0", *ran["a"], *ran["b"], *ran["c"])
	}
	if !c.Restored() {
		t.Error("waiter's stage c not marked restored")
	}
	if lg.count("owned by another runner") == 0 {
		t.Error("expected an owned-by-another-runner log line")
	}
}

// TestGateHandoverAfterDenials: a gate that starts saying yes mid-wait
// (a steal deadline passing) hands the build to the waiting runner.
func TestGateHandoverAfterDenials(t *testing.T) {
	gate := newRecordingGate(func(_ string, calls int) bool { return calls >= 3 })
	ran := counters()
	r, c := chain(Options{Dir: t.TempDir(), Resume: true, Gate: gate, GatePoll: time.Millisecond}, ran)
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Out() != 111 {
		t.Fatalf("output = %d, want 111", c.Out())
	}
	if *ran["a"] != 1 || *ran["b"] != 1 || *ran["c"] != 1 {
		t.Errorf("builds after handover: %d/%d/%d, want 1/1/1", *ran["a"], *ran["b"], *ran["c"])
	}
	if got := gate.count("a"); got < 3 {
		t.Errorf("gate asked %d times for stage a before handover, want ≥ 3", got)
	}
}

// TestFanOut: shard sub-stages get positional names and fingerprints, a
// downstream stage can gather them, and per-shard artifacts land in the
// base stage's subdirectory.
func TestFanOut(t *testing.T) {
	dir := t.TempDir()
	r := New(Options{Dir: dir, Resume: true})
	var built atomic.Int32
	shards := FanOut(r, "pass-0", "cfg", 3, nil, intCodec, func(i int) func(context.Context) (int, error) {
		return func(context.Context) (int, error) {
			built.Add(1)
			return i * 10, nil
		}
	})
	gather := AddStage(r, "pass-0-gather", "cfg", Handles(shards), intCodec, func(context.Context) (int, error) {
		sum := 0
		for _, s := range shards {
			sum += s.Out()
		}
		return sum, nil
	})
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if gather.Out() != 30 {
		t.Fatalf("gathered %d, want 30", gather.Out())
	}
	if built.Load() != 3 {
		t.Fatalf("built %d shards, want 3", built.Load())
	}
	fps := map[string]bool{}
	for i, s := range shards {
		if want := fmt.Sprintf("pass-0/shard-%d", i); s.Name() != want {
			t.Errorf("shard %d named %q, want %q", i, s.Name(), want)
		}
		if fps[s.m.fingerprint] {
			t.Errorf("shard %d shares a fingerprint with an earlier shard", i)
		}
		fps[s.m.fingerprint] = true
		if _, err := os.Stat(filepath.Join(dir, s.Name()+".snap")); err != nil {
			t.Errorf("shard %d checkpoint missing: %v", i, err)
		}
	}
}

// TestFanOutShardCountInvalidates: the same base at a different shard
// count must not reuse any shard checkpoint — the fingerprint carries
// the shard's position AND the total.
func TestFanOutShardCountInvalidates(t *testing.T) {
	dir := t.TempDir()
	run := func(n int) int {
		r := New(Options{Dir: dir, Resume: true})
		var builds atomic.Int64
		shards := FanOut(r, "pass-0", "cfg", n, nil, intCodec, func(i int) func(context.Context) (int, error) {
			return func(context.Context) (int, error) {
				builds.Add(1)
				return i, nil
			}
		})
		_ = shards
		if err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return int(builds.Load())
	}
	if got := run(2); got != 2 {
		t.Fatalf("first run built %d shards, want 2", got)
	}
	if got := run(2); got != 0 {
		t.Errorf("identical re-run rebuilt %d shards, want 0", got)
	}
	if got := run(3); got != 3 {
		t.Errorf("re-run at 3 shards rebuilt %d, want all 3 (stale split must not be reused)", got)
	}
}

// TestWriteAtomicConcurrentDuplicates: shard runners may checkpoint the
// same stage at once; concurrent identical writes must leave one valid
// file and no temp litter.
func TestWriteAtomicConcurrentDuplicates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dup.snap")
	data := []byte(strings.Repeat("deterministic artifact bytes\n", 512))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := (statefs.Disk{}).WriteAtomic(path, data); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent writeAtomic: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Error("file content corrupted by concurrent identical writes")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}
