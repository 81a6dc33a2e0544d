// Package metrics is the campaign observability layer: a dependency-free,
// deterministic metrics registry (counters, gauges, fixed-bucket
// histograms) plus a structured trace layer (see trace.go) and optional
// live HTTP debug endpoints (see debug.go).
//
// Determinism rules. Every value a campaign exports must be bit-identical
// across worker counts and across kill/resume cycles, so the layer is
// built on the same snapshot-delta pattern as faults.Counters:
//
//   - Counters and histogram buckets are order-independent atomic sums.
//     Workers increment them concurrently; because addition commutes, the
//     totals cannot depend on the schedule.
//   - A campaign stage snapshots the registry before it runs and folds the
//     delta into the checkpointed artifact after (Ledger.Sub + Merge).
//     The checkpoint — not the in-process registry, which resets on
//     restart — is the source of truth, so a resumed run reports the same
//     ledger as an uninterrupted one.
//   - The exported ledger never contains wall-clock readings,
//     restored-vs-executed flags, or anything else that legitimately
//     differs between processes; those belong in the trace (trace.go) and
//     the log lines.
//
// Handles are resolved by name once, outside hot loops (the registry
// mutex is only taken at resolution); the per-event cost is one atomic
// add. All handle methods are nil-receiver safe and a nil *Registry
// resolves nil handles, so instrumentation call sites are unconditional.
package metrics

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing sum. The zero value is ready to
// use; a nil receiver discards.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (no-op on a nil receiver).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current sum.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins level. Gauges are NOT order-independent
// under concurrent writers, so campaign code folded into checkpoints
// must not use them; they exist for live, process-local levels (queue
// depths, open connections) surfaced via the debug endpoints.
type Gauge struct{ v atomic.Int64 }

// Set stores v (no-op on a nil receiver).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the level by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into a fixed bucket layout. Buckets are
// non-cumulative (each observation lands in exactly one), which keeps
// every bucket an order-independent sum with the same snapshot-delta
// semantics as a counter. The layout is fixed at registration so the
// flattened key set is identical on every run.
type Histogram struct {
	bounds  []int64 // ascending upper bounds (v <= bound); +Inf implied last
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records v (no-op on a nil receiver).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// flatten appends the histogram's values under name into led.
func (h *Histogram) flatten(name string, led Ledger) {
	for i, b := range h.bounds {
		led[fmt.Sprintf("%s/le=%d", name, b)] = h.buckets[i].Load()
	}
	led[name+"/le=inf"] = h.buckets[len(h.bounds)].Load()
	led[name+"/count"] = h.count.Load()
	led[name+"/sum"] = h.sum.Load()
}

// Registry resolves named metrics. A nil *Registry is valid and resolves
// nil (discarding) handles, so instrumented code never branches on
// whether metrics are enabled.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	reserved map[string]bool // flattened keys snapshots carry even unregistered
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		reserved: make(map[string]bool),
	}
}

// Counter resolves (registering on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge resolves (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram resolves (registering on first use) the named histogram with
// the given bucket upper bounds. The first registration fixes the layout;
// later calls return the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Reserve makes every key of led appear in later snapshots, zero-valued
// until a metric registers under it: a process that restores a stage's
// ledger instead of running the stage then snapshots the key set of one
// that ran it.
func (r *Registry) Reserve(led Ledger) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range led {
		r.reserved[k] = true
	}
}

// Snapshot flattens every registered metric into a ledger: counters and
// gauges under their name, histograms as name/le=<bound> buckets plus
// name/count and name/sum.
func (r *Registry) Snapshot() Ledger { return r.SnapshotPrefix() }

// SnapshotPrefix flattens the metrics whose name starts with any of the
// given prefixes (no prefixes = everything). Campaign stages restrict
// their snapshot-delta folds to the key spaces the campaign chain owns,
// so concurrently running chains cannot contaminate the deltas.
func (r *Registry) SnapshotPrefix(prefixes ...string) Ledger {
	if r == nil {
		return nil
	}
	match := func(name string) bool {
		if len(prefixes) == 0 {
			return true
		}
		for _, p := range prefixes {
			if len(name) >= len(p) && name[:len(p)] == p {
				return true
			}
		}
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	led := Ledger{}
	for name := range r.reserved {
		if match(name) {
			led[name] = 0
		}
	}
	for name, c := range r.counters {
		if match(name) {
			led[name] = c.Value()
		}
	}
	for name, g := range r.gauges {
		if match(name) {
			led[name] = g.Value()
		}
	}
	for name, h := range r.hists {
		if match(name) {
			h.flatten(name, led)
		}
	}
	return led
}

// Ledger is a flattened, order-independent snapshot of metric values:
// name → int64. It is what folds into checkpointed artifacts and what
// -metrics-json exports; JSON marshalling sorts the keys, so equal
// ledgers render byte-identically.
type Ledger map[string]int64

// Clone returns a copy.
func (l Ledger) Clone() Ledger {
	out := make(Ledger, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// Sub returns the delta l - o over l's keys (a key missing in o counts
// as zero there). Keys with a zero delta are kept: the key set of a
// stage's fold then depends only on which metrics the stage's code
// touched, not on whether any events happened to occur.
func (l Ledger) Sub(o Ledger) Ledger {
	out := make(Ledger, len(l))
	for k, v := range l {
		out[k] = v - o[k]
	}
	return out
}

// Merge adds every entry of o into l, creating missing keys.
func (l Ledger) Merge(o Ledger) {
	for k, v := range o {
		l[k] += v
	}
}

// Get returns the value at key (zero when absent).
func (l Ledger) Get(key string) int64 { return l[key] }

// Keys returns the sorted key list.
func (l Ledger) Keys() []string {
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// JSON renders the ledger as indented JSON with sorted keys and a
// trailing newline — the canonical -metrics-json format, byte-identical
// for equal ledgers.
func (l Ledger) JSON() []byte {
	if l == nil {
		l = Ledger{}
	}
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		// A map[string]int64 always marshals; keep the signature simple.
		panic("metrics: ledger marshal: " + err.Error())
	}
	return append(b, '\n')
}
