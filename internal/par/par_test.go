package par

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 100
		out := make([]int32, n)
		ForEach(n, Workers(workers), func(i int) { atomic.AddInt32(&out[i], 1) })
		for i, v := range out {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
}

func TestForEachZeroAndOne(t *testing.T) {
	calls := 0
	ForEach(0, 4, func(int) { calls++ })
	if calls != 0 {
		t.Errorf("n=0 made %d calls", calls)
	}
	ForEach(1, 4, func(i int) { calls += i + 1 })
	if calls != 1 {
		t.Errorf("n=1: calls=%d", calls)
	}
}

// TestForEachSequentialReference: workers <= 1 is the reference every
// pool size must reproduce, so it runs on the calling goroutine and
// visits indices in ascending order.
func TestForEachSequentialReference(t *testing.T) {
	caller := goroutineID()
	for _, workers := range []int{-1, 0, 1} {
		var order []int
		var foreign atomic.Int32
		ForEach(10, workers, func(i int) {
			if goroutineID() != caller {
				foreign.Add(1)
				return
			}
			order = append(order, i)
		})
		if n := foreign.Load(); n > 0 {
			t.Fatalf("workers=%d: %d indices ran off the calling goroutine", workers, n)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("workers=%d: visit order %v, want ascending", workers, order)
			}
		}
		if len(order) != 10 {
			t.Fatalf("workers=%d: %d visits, want 10", workers, len(order))
		}
	}
}

// TestForEachBoundsGoroutines: the pool never runs more than workers
// callbacks at once, however many indices it has.
func TestForEachBoundsGoroutines(t *testing.T) {
	var inflight, peak atomic.Int32
	ForEach(200, 3, func(int) {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		runtime.Gosched()
		inflight.Add(-1)
	})
	if p := peak.Load(); p > 3 || p < 1 {
		t.Errorf("peak concurrency %d, want 1..3", p)
	}
}

// goroutineID returns the current goroutine's id from its stack header
// ("goroutine 7 [running]: ...").
func goroutineID() string {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return f[1]
}

func TestGroupFirstError(t *testing.T) {
	var g Group
	want := errors.New("boom")
	g.Go(func() error { return nil })
	g.Go(func() error { return want })
	if err := g.Wait(); err != want {
		t.Errorf("Wait = %v, want %v", err, want)
	}
	var ok Group
	ok.Go(func() error { return nil })
	if err := ok.Wait(); err != nil {
		t.Errorf("Wait = %v, want nil", err)
	}
}

func TestWorkersDefault(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("Workers must be at least 1")
	}
	if Workers(5) != 5 {
		t.Error("explicit worker count not preserved")
	}
}
