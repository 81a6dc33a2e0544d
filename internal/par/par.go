// Package par holds the two small concurrency primitives the measurement
// pipeline is parallelized with: ForEach, the one bounded worker pool
// every campaign stage runs on, and an errgroup-style Group for running
// independent pipeline stages. Both are deliberately tiny — the
// pipeline's determinism comes from writing results into per-index slots
// and merging them in a fixed order, not from any scheduling property of
// these helpers.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: values <= 0 mean GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach calls fn(i) for every i in [0, n) on at most workers
// goroutines. Workers claim indices from one atomic counter, so uneven
// per-index costs balance themselves and the set of calls is identical
// for any worker count. Callers must ensure fn(i) writes only to index-i
// state; merging those slots in index order afterwards yields results
// independent of the worker count. fn must not call ForEach itself: one
// pool per stage is what keeps the goroutine count at workers.
//
// workers <= 1 (or n <= 1) runs inline on the calling goroutine in
// ascending index order, which is the fully sequential reference
// behaviour.
func ForEach(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Group runs functions concurrently and keeps the first error, in the
// style of golang.org/x/sync/errgroup (which is not vendored here).
type Group struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

// Go runs fn on its own goroutine.
func (g *Group) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(); err != nil {
			g.mu.Lock()
			if g.err == nil {
				g.err = err
			}
			g.mu.Unlock()
		}
	}()
}

// Wait blocks until every function passed to Go has returned and reports
// the first error any of them produced.
func (g *Group) Wait() error {
	g.wg.Wait()
	return g.err
}
