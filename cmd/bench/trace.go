package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own tracing: spans recorded from cmd/bench code around
// its calls into the layers, kept in memory and written as JSON Lines
// when the run ends. A nil *tracer records nothing, which is how the
// untraced run measures end-to-end metrics without the cost.

// span is one timed interval. Times are seconds since the trace began;
// Parent is the ID of the span that caused this one (0 for the root);
// every span of one run carries the same Run ID, every sampled request
// its own Req number.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Run    string  `json:"run"`
	Req    int64   `json:"req,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// requestSampling is how many requests share one recorded span: every
// request of a traced load phase is timed, one in this many is kept.
const requestSampling = 64

type tracer struct {
	run    string
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now()}
}

// begin opens a span and returns its ID and the function that closes it.
func (t *tracer) begin(name string, parent int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	id := t.nextID.Add(1)
	start := time.Since(t.t0).Seconds()
	return id, func() {
		end := time.Since(t.t0).Seconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: start, End: end})
		t.mu.Unlock()
	}
}

// add records a span whose interval was measured elsewhere (a pipeline
// stage stamped by the child, say), already on the trace's clock.
func (t *tracer) add(name string, parent int64, start, end float64) {
	if t == nil {
		return
	}
	id := t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// request records one in requestSampling requests of a load phase.
func (t *tracer) request(name string, parent int64, start, end time.Time, n int64) {
	if t == nil || n%requestSampling != 0 {
		return
	}
	id := t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Req: n, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
	t.mu.Unlock()
}

// offset places a wall-clock instant (Unix nanoseconds, as another
// process stamped it) on the trace's clock.
func (t *tracer) offset(unixNano int64) float64 {
	if t == nil {
		return 0
	}
	return time.Unix(0, unixNano).Sub(t.t0).Seconds()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it its children cover (children may overlap one another; the covered
// part is the union of their intervals clipped to the parent).
func selfTimes(spans []span) map[int64]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int64]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// write stores the spans, each with its self time, as JSON Lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	self := selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		line := struct {
			span
			Self float64 `json:"self"`
		}{s, self[s.ID]}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
