package pipeline

import (
	"context"
	"errors"
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

// fanRun is a scatter/gather over the values 0…9: FanOut shard i of n
// sums the values ≡ i (mod n), and the persisted gather "pass-0" sums the
// shards, so its artifact is 45 at every shard count — like a probing
// step's delta. Shard i's build calls shard(i) first when it is set.
type fanRun struct {
	r        *Runner
	shards   []*Stage[int]
	gather   *Stage[int]
	built    atomic.Int32
	gathered atomic.Int32
}

func newFanRun(opts Options, n int, shard func(i int) error) *fanRun {
	f := &fanRun{r: New(opts)}
	f.shards = FanOut(f.r, "pass-0", "cfg", n, nil, intCodec, func(i int) func(context.Context) (int, error) {
		return func(context.Context) (int, error) {
			f.built.Add(1)
			if shard != nil {
				if err := shard(i); err != nil {
					return 0, err
				}
			}
			sum := 0
			for v := i; v < 10; v += n {
				sum += v
			}
			return sum, nil
		}
	})
	f.gather = AddStage(f.r, "pass-0", "cfg", Handles(f.shards), intCodec, func(context.Context) (int, error) {
		f.gathered.Add(1)
		sum := 0
		for _, s := range f.shards {
			sum += s.Out()
		}
		return sum, nil
	})
	return f
}

// run runs the pipeline and checks the gathered artifact.
func (f *fanRun) run(t *testing.T) {
	t.Helper()
	if err := f.r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := f.gather.Out(); got != 45 {
		t.Fatalf("gathered %d, want 45", got)
	}
}

// readLog is the disk, recording every path read through it.
type readLog struct {
	statefs.Disk
	mu    sync.Mutex
	paths []string
}

func (l *readLog) ReadFile(path string) ([]byte, error) {
	l.mu.Lock()
	l.paths = append(l.paths, path)
	l.mu.Unlock()
	return l.Disk.ReadFile(path)
}

// TestFanOutShardCountInvalidates: the same base at a different shard
// count must not reuse any shard checkpoint — the fingerprint carries
// the shard's position AND the total. The gather's checkpoint is shard
// count independent, so the re-split is reached through a torn gather.
func TestFanOutShardCountInvalidates(t *testing.T) {
	dir := t.TempDir()
	run := func(n int) int {
		f := newFanRun(Options{Dir: dir, Resume: true}, n, nil)
		f.run(t)
		return int(f.built.Load())
	}
	if got := run(2); got != 2 {
		t.Fatalf("first run built %d shards, want 2", got)
	}
	if err := os.Remove(filepath.Join(dir, "pass-0.snap")); err != nil {
		t.Fatal(err)
	}
	if got := run(2); got != 0 {
		t.Errorf("identical re-run rebuilt %d shards, want 0", got)
	}
	if err := os.Remove(filepath.Join(dir, "pass-0.snap")); err != nil {
		t.Fatal(err)
	}
	if got := run(3); got != 3 {
		t.Errorf("re-run at 3 shards rebuilt %d, want all 3 (stale split must not be reused)", got)
	}
}

// TestInputsSkippedWhenDependentRestores: a gather whose checkpoint
// restores neither runs nor reads its shards — at the shard count that
// wrote it or at any other.
func TestInputsSkippedWhenDependentRestores(t *testing.T) {
	dir := t.TempDir()
	newFanRun(Options{Dir: dir}, 3, nil).run(t)
	for _, n := range []int{3, 1, 5} {
		reads := &readLog{}
		f := newFanRun(Options{Dir: dir, FS: reads, Resume: true}, n, nil)
		f.run(t)
		if !f.gather.Restored() || f.gathered.Load() != 0 || f.built.Load() != 0 {
			t.Errorf("shards=%d: gather restored=%v, %d gather and %d shard builds, want a restore and none",
				n, f.gather.Restored(), f.gathered.Load(), f.built.Load())
		}
		for _, p := range reads.paths {
			if strings.Contains(p, "/shard-") {
				t.Errorf("shards=%d: read %s although the gather restored", n, p)
			}
		}
	}
}

// TestInputsRunWhenStale: a gather with no checkpoint to restore runs all
// its shards, concurrently, and drops their artifacts once it has built;
// a torn gather is rebuilt from its shards' checkpoints alone.
func TestInputsRunWhenStale(t *testing.T) {
	dir := t.TempDir()
	const n = 3
	var started atomic.Int32
	all := make(chan struct{})
	f := newFanRun(Options{Dir: dir, Resume: true}, n, func(int) error {
		if started.Add(1) == n {
			close(all)
		}
		select {
		case <-all:
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("the shards did not run concurrently")
		}
	})
	f.run(t)
	if f.built.Load() != n || f.gathered.Load() != 1 {
		t.Errorf("%d shard and %d gather builds, want %d and 1", f.built.Load(), f.gathered.Load(), n)
	}
	for _, s := range f.shards {
		if s.Out() != 0 {
			t.Errorf("%s still holds %d after the gather built", s.Name(), s.Out())
		}
	}

	if err := os.WriteFile(filepath.Join(dir, "pass-0.snap"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	f = newFanRun(Options{Dir: dir, Resume: true}, n, nil)
	f.run(t)
	if f.built.Load() != 0 || f.gathered.Load() != 1 {
		t.Errorf("torn gather: %d shard and %d gather builds, want 0 and 1", f.built.Load(), f.gathered.Load())
	}
	for _, s := range f.shards {
		if !s.Restored() {
			t.Errorf("torn gather: %s was not restored", s.Name())
		}
	}
}

// TestInputsDroppedWhenGateRestores: in shard-runner mode a gather whose
// first restore fails runs its shards, then waits at the gate for the
// owner's checkpoint. Restoring that checkpoint drops the shards'
// artifacts as a build does.
func TestInputsDroppedWhenGateRestores(t *testing.T) {
	dir := t.TempDir()
	gate := newRecordingGate(func(stage string, _ int) bool { return strings.Contains(stage, "/shard-") })
	f := newFanRun(Options{Dir: dir, Resume: true, Gate: gate, GatePoll: time.Millisecond}, 3, nil)
	done := make(chan error, 1)
	go func() { done <- f.r.Run(context.Background()) }()

	// Play the gather's owner once the waiter has asked for it.
	for gate.count("pass-0") == 0 {
		time.Sleep(time.Millisecond)
	}
	newFanRun(Options{Dir: dir, Resume: true}, 3, nil).run(t)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !f.gather.Restored() || f.gathered.Load() != 0 || f.built.Load() != 3 {
		t.Fatalf("gather restored=%v, %d gather and %d shard builds, want a restore, 0 and 3",
			f.gather.Restored(), f.gathered.Load(), f.built.Load())
	}
	if got := f.gather.Out(); got != 45 {
		t.Fatalf("restored %d, want 45", got)
	}
	for _, s := range f.shards {
		if s.Out() != 0 {
			t.Errorf("%s still holds %d after the gather restored", s.Name(), s.Out())
		}
	}
}

// TestInputErrorFailsDependent: a failing shard fails its gather with the
// shard's own error; neither the gather nor anything after it builds.
func TestInputErrorFailsDependent(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	f := newFanRun(Options{Dir: dir}, 3, func(i int) error {
		if i == 1 {
			return boom
		}
		return nil
	})
	var after atomic.Int32
	AddStage(f.r, "after", "", []Handle{f.gather}, nil, func(context.Context) (struct{}, error) {
		after.Add(1)
		return struct{}{}, nil
	})
	err := f.r.Run(context.Background())
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "pass-0/shard-1") {
		t.Fatalf("got %v, want the shard's own error", err)
	}
	if f.gathered.Load() != 0 || after.Load() != 0 {
		t.Errorf("gather built %d times and its dependent %d after a shard failed, want 0 and 0", f.gathered.Load(), after.Load())
	}
	if _, err := os.Stat(filepath.Join(dir, "pass-0.snap")); err == nil {
		t.Error("the gather checkpointed after a shard failed")
	}
}

// TestStopAfterInput: a StopAfter naming a shard stops the run once that
// shard has checkpointed; the gather builds nothing and writes nothing.
func TestStopAfterInput(t *testing.T) {
	dir := t.TempDir()
	f := newFanRun(Options{Dir: dir, StopAfter: "pass-0/shard-1"}, 3, nil)
	if err := f.r.Run(context.Background()); !errors.Is(err, ErrStopped) {
		t.Fatalf("got %v, want ErrStopped", err)
	}
	if f.gathered.Load() != 0 {
		t.Errorf("the gather built %d times after the stop, want 0", f.gathered.Load())
	}
	if _, err := os.Stat(filepath.Join(dir, "pass-0.snap")); err == nil {
		t.Error("the gather checkpointed after the stop")
	}
	if _, err := os.Stat(filepath.Join(dir, "pass-0", "shard-1.snap")); err != nil {
		t.Errorf("the stopping shard did not checkpoint: %v", err)
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
