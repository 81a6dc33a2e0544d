package main

import (
	"sort"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	rank := int(p / 100 * float64(n))
	if float64(rank) < p/100*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// The quiet half. The benchmark's hosts are small virtual machines whose
// neighbours take a CPU away for milliseconds at a time, several times a
// second, and sometimes for seconds. That only ever makes a slice of a
// load phase slower, never faster, so the better half of the slices are
// the ones that measured the program and the rest measured the host. The
// load phases therefore report the mean of their better half of slices,
// and latency percentiles pooled over their quieter half of windows. A
// cost the program itself pays moves every slice, and these figures with
// them. The plain median slice is printed beside each for comparison.

// quietHalf returns the mean of the better half of xs (the upper half
// when higher is better; the middle value counts for an odd count).
func quietHalf(xs []float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := (len(s) + 1) / 2
	if higherIsBetter {
		s = s[len(s)-k:]
	} else {
		s = s[:k]
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// sliceCounter counts completed operations per fixed-length time slice
// of a closed-loop phase.
type sliceCounter struct {
	counts []int64
}

func newSliceCounter(slices int) *sliceCounter {
	return &sliceCounter{counts: make([]int64, slices)}
}

// add merges another worker's per-slice counts.
func (c *sliceCounter) add(o *sliceCounter) {
	for i := range o.counts {
		c.counts[i] += o.counts[i]
	}
}

// rates returns each slice's rate in operations per second.
func (c *sliceCounter) rates(sliceSeconds float64) []float64 {
	rates := make([]float64, len(c.counts))
	for i, v := range c.counts {
		rates[i] = float64(v) / sliceSeconds
	}
	return rates
}

// latencyWindows holds per-operation latencies in nanoseconds, cut into
// consecutive windows of time.
type latencyWindows [][]int64

// cutWindows splits samples that are in time order into n equal runs.
func cutWindows(ns []int64, n int) latencyWindows {
	w := make(latencyWindows, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(ns)/n, (i+1)*len(ns)/n
		if hi > lo {
			w = append(w, ns[lo:hi])
		}
	}
	return w
}

// samples returns the total sample count.
func (w latencyWindows) samples() int {
	n := 0
	for _, win := range w {
		n += len(win)
	}
	return n
}

// sortedUS returns the window's samples ascending, in microseconds.
func sortedUS(win []int64) []float64 {
	s := make([]float64, len(win))
	for i, v := range win {
		s[i] = float64(v) / 1e3
	}
	sort.Float64s(s)
	return s
}

// medianWindowUS returns, for each p, the median over the windows of the
// window's p-th percentile, in microseconds.
func (w latencyWindows) medianWindowUS(ps ...float64) []float64 {
	per := make([][]float64, len(ps))
	for _, win := range w {
		if len(win) == 0 {
			continue
		}
		s := sortedUS(win)
		for i, p := range ps {
			per[i] = append(per[i], percentile(s, p))
		}
	}
	out := make([]float64, len(ps))
	for i := range ps {
		out[i] = median(per[i])
	}
	return out
}

// quietUS returns the percentiles, in microseconds, of the samples of
// the quieter half of the windows pooled together; a window is as quiet
// as its own tail (its highest requested percentile) is short.
func (w latencyWindows) quietUS(ps ...float64) []float64 {
	top := 0.0
	for _, p := range ps {
		top = max(top, p)
	}
	type ranked struct {
		tail float64
		win  []int64
	}
	var rs []ranked
	for _, win := range w {
		if len(win) > 0 {
			rs = append(rs, ranked{percentile(sortedUS(win), top), win})
		}
	}
	out := make([]float64, len(ps))
	if len(rs) == 0 {
		return out
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].tail < rs[j].tail })
	var pool []int64
	for _, r := range rs[:(len(rs)+1)/2] {
		pool = append(pool, r.win...)
	}
	s := sortedUS(pool)
	for i, p := range ps {
		out[i] = percentile(s, p)
	}
	return out
}
