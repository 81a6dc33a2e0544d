package pipeline

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"clientmap/internal/snapshot"
)

// intCodec persists a single int — enough to exercise every pipeline path.
var intCodec = &snapshot.Codec[int]{
	Kind:    "test.Int",
	Version: 1,
	Encode:  func(w *snapshot.Writer, v int) { w.Int(v) },
	Decode: func(r *snapshot.Reader) (int, error) {
		v := r.Int()
		return v, r.Err()
	},
}

type testLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *testLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *testLog) count(substr string) int {
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

// chain registers a three-stage linear pipeline a→b→c plus an ephemeral
// stage over b, counting how often each build function actually runs.
func chain(opts Options, ran map[string]*int) (*Runner, *Stage[int]) {
	r := New(opts)
	track := func(name string, v int) func(context.Context) (int, error) {
		return func(context.Context) (int, error) {
			*ran[name]++
			return v, nil
		}
	}
	a := AddStage(r, "a", "cfg-a", nil, intCodec, track("a", 1))
	b := AddStage(r, "b", "cfg-b", []Handle{a}, intCodec, func(ctx context.Context) (int, error) {
		*ran["b"]++
		return a.Out() + 10, nil
	})
	AddStage(r, "eph", "", []Handle{b}, nil, func(ctx context.Context) (struct{}, error) {
		*ran["eph"]++
		return struct{}{}, nil
	})
	c := AddStage(r, "c", "cfg-c", []Handle{b}, intCodec, func(ctx context.Context) (int, error) {
		*ran["c"]++
		return b.Out() + 100, nil
	})
	return r, c
}

func counters() map[string]*int {
	return map[string]*int{"a": new(int), "b": new(int), "c": new(int), "eph": new(int)}
}

func TestResumeSkipsCompletedStages(t *testing.T) {
	dir := t.TempDir()
	lg := &testLog{}

	ran := counters()
	r, c := chain(Options{Dir: dir, Resume: true, Log: lg.logf}, ran)
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Out() != 111 {
		t.Fatalf("first run output = %d, want 111", c.Out())
	}
	if *ran["a"] != 1 || *ran["b"] != 1 || *ran["c"] != 1 {
		t.Fatalf("first run builds: %d/%d/%d, want 1/1/1", *ran["a"], *ran["b"], *ran["c"])
	}

	// Second run: every persisted stage restores, the ephemeral one runs.
	ran2 := counters()
	r2, c2 := chain(Options{Dir: dir, Resume: true, Log: lg.logf}, ran2)
	if err := r2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c2.Out() != 111 {
		t.Fatalf("restored output = %d, want 111", c2.Out())
	}
	if *ran2["a"] != 0 || *ran2["b"] != 0 || *ran2["c"] != 0 {
		t.Errorf("persisted stages re-ran on resume: %d/%d/%d", *ran2["a"], *ran2["b"], *ran2["c"])
	}
	if *ran2["eph"] != 1 {
		t.Errorf("ephemeral stage ran %d times, want 1", *ran2["eph"])
	}
	if !c2.Restored() {
		t.Error("stage c not marked restored")
	}
	if lg.count("restored checkpoint") != 3 {
		t.Errorf("restored-checkpoint log lines: %d, want 3", lg.count("restored checkpoint"))
	}
}

func TestWithoutResumeRebuildsEverything(t *testing.T) {
	dir := t.TempDir()
	ran := counters()
	r, _ := chain(Options{Dir: dir}, ran)
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ran2 := counters()
	r2, _ := chain(Options{Dir: dir}, ran2) // Resume off: checkpoints ignored
	if err := r2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if *ran2["a"] != 1 || *ran2["b"] != 1 || *ran2["c"] != 1 {
		t.Errorf("builds without Resume: %d/%d/%d, want 1/1/1", *ran2["a"], *ran2["b"], *ran2["c"])
	}
}

// TestFingerprintInvalidationCascades: changing one stage's config must
// rebuild it AND everything downstream (fingerprints chain on upstream
// artifact hashes), while unaffected upstream stages still restore.
func TestFingerprintInvalidationCascades(t *testing.T) {
	dir := t.TempDir()
	ran := counters()
	r, _ := chain(Options{Dir: dir, Resume: true}, ran)
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Same graph, but stage b's config changed — and its output with it.
	ran2 := counters()
	lg := &testLog{}
	r2 := New(Options{Dir: dir, Resume: true, Log: lg.logf})
	a := AddStage(r2, "a", "cfg-a", nil, intCodec, func(context.Context) (int, error) {
		*ran2["a"]++
		return 1, nil
	})
	b := AddStage(r2, "b", "cfg-b-CHANGED", []Handle{a}, intCodec, func(ctx context.Context) (int, error) {
		*ran2["b"]++
		return a.Out() + 20, nil
	})
	c := AddStage(r2, "c", "cfg-c", []Handle{b}, intCodec, func(ctx context.Context) (int, error) {
		*ran2["c"]++
		return b.Out() + 100, nil
	})
	if err := r2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if *ran2["a"] != 0 {
		t.Error("stage a rebuilt despite unchanged inputs")
	}
	if *ran2["b"] != 1 || *ran2["c"] != 1 {
		t.Errorf("invalidation cascade: b ran %d, c ran %d, want 1/1", *ran2["b"], *ran2["c"])
	}
	if c.Out() != 121 {
		t.Errorf("cascaded output = %d, want 121", c.Out())
	}
	if lg.count("stale") == 0 {
		t.Error("expected a stale-fingerprint log line for stage b or c")
	}
}

func TestStopAfter(t *testing.T) {
	dir := t.TempDir()
	ran := counters()
	r, _ := chain(Options{Dir: dir, StopAfter: "b"}, ran)
	err := r.Run(context.Background())
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("StopAfter run: got %v, want ErrStopped", err)
	}
	if *ran["a"] != 1 || *ran["b"] != 1 {
		t.Errorf("stages before the stop: a=%d b=%d, want 1/1", *ran["a"], *ran["b"])
	}
	if *ran["c"] != 0 {
		t.Error("stage c ran after the stop")
	}
	// a and b checkpointed; c did not.
	for _, want := range []struct {
		name   string
		exists bool
	}{{"a", true}, {"b", true}, {"c", false}} {
		_, err := os.Stat(filepath.Join(dir, want.name+".snap"))
		if got := err == nil; got != want.exists {
			t.Errorf("checkpoint %s.snap exists=%v, want %v", want.name, got, want.exists)
		}
	}

	// Resume finishes the tail only.
	ran2 := counters()
	r2, c2 := chain(Options{Dir: dir, Resume: true}, ran2)
	if err := r2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if *ran2["a"] != 0 || *ran2["b"] != 0 || *ran2["c"] != 1 {
		t.Errorf("resume after stop: builds a=%d b=%d c=%d, want 0/0/1", *ran2["a"], *ran2["b"], *ran2["c"])
	}
	if c2.Out() != 111 {
		t.Errorf("resumed output = %d, want 111", c2.Out())
	}
}

// TestCorruptCheckpointRebuilds: a torn or garbage checkpoint must be
// rebuilt silently, never wedge the run.
func TestCorruptCheckpointRebuilds(t *testing.T) {
	dir := t.TempDir()
	ran := counters()
	r, _ := chain(Options{Dir: dir, Resume: true}, ran)
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.snap"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	ran2 := counters()
	lg := &testLog{}
	r2, c2 := chain(Options{Dir: dir, Resume: true, Log: lg.logf}, ran2)
	if err := r2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if *ran2["a"] != 1 {
		t.Errorf("corrupt checkpoint: stage a ran %d times, want 1", *ran2["a"])
	}
	if c2.Out() != 111 {
		t.Errorf("output after corrupt-checkpoint rebuild = %d, want 111", c2.Out())
	}
	if lg.count("ignoring checkpoint") == 0 {
		t.Error("expected an ignoring-checkpoint log line")
	}
}

// TestNoDirRunsInMemory: without a state directory nothing is persisted
// and every stage runs.
func TestNoDirRunsInMemory(t *testing.T) {
	ran := counters()
	r, c := chain(Options{}, ran)
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Out() != 111 {
		t.Fatalf("in-memory output = %d, want 111", c.Out())
	}
}

// TestStageErrorPropagates: a failing stage surfaces its own error once,
// and dependents do not run.
func TestStageErrorPropagates(t *testing.T) {
	r := New(Options{})
	boom := errors.New("boom")
	a := AddStage(r, "a", "", nil, intCodec, func(context.Context) (int, error) {
		return 0, boom
	})
	ranB := false
	AddStage(r, "b", "", []Handle{a}, intCodec, func(context.Context) (int, error) {
		ranB = true
		return 0, nil
	})
	err := r.Run(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the stage's own error", err)
	}
	if !strings.Contains(err.Error(), "stage a") {
		t.Errorf("error %q does not name the failing stage", err)
	}
	if ranB {
		t.Error("dependent stage ran after its dependency failed")
	}
}
