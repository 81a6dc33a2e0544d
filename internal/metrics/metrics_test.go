package metrics

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("y")
	h := reg.Histogram("z", []int64{1, 2})
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	h.Observe(7)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles must discard")
	}
	if led := reg.Snapshot(); led != nil {
		t.Errorf("nil registry snapshot = %v, want nil", led)
	}
	var tr *Trace
	tr.Emit(Span{Stage: "x"})
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Error("nil trace must discard")
	}
}

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("probes")
	c.Inc()
	c.Add(9)
	if got := c.Value(); got != 10 {
		t.Errorf("counter = %d, want 10", got)
	}
	if reg.Counter("probes") != c {
		t.Error("re-resolving a counter must return the same handle")
	}
	g := reg.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	if reg.Gauge("depth") != g {
		t.Error("re-resolving a gauge must return the same handle")
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []int64{10, 100})
	if reg.Histogram("lat", []int64{999}) != h {
		t.Error("re-resolving a histogram must return the same handle")
	}
	for _, v := range []int64{0, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 0+10+11+100+101+5000 {
		t.Errorf("sum = %d", h.Sum())
	}
	led := reg.Snapshot()
	want := Ledger{
		"lat/le=10":  2, // 0, 10
		"lat/le=100": 2, // 11, 100
		"lat/le=inf": 2, // 101, 5000
		"lat/count":  6,
		"lat/sum":    5222,
	}
	if !reflect.DeepEqual(led, want) {
		t.Errorf("snapshot = %v, want %v", led, want)
	}
}

func TestSnapshotPrefix(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cacheprobe/probes").Add(3)
	reg.Counter("gpdns/queries").Add(7)
	reg.Counter("other/x").Add(1)
	led := reg.SnapshotPrefix("cacheprobe/", "gpdns/")
	want := Ledger{"cacheprobe/probes": 3, "gpdns/queries": 7}
	if !reflect.DeepEqual(led, want) {
		t.Errorf("prefix snapshot = %v, want %v", led, want)
	}
}

// TestSnapshotDeltaFold exercises the stage-fold pattern: snapshot before,
// fold the delta after — twice — and demand the folded ledger equals a
// single snapshot of everything.
func TestSnapshotDeltaFold(t *testing.T) {
	reg := NewRegistry()
	folded := Ledger{}
	for stage := 0; stage < 2; stage++ {
		before := reg.Snapshot()
		reg.Counter("probes").Add(int64(10 * (stage + 1)))
		reg.Counter("idle") // touched but never incremented
		folded.Merge(reg.Snapshot().Sub(before))
	}
	if !reflect.DeepEqual(folded, reg.Snapshot()) {
		t.Errorf("folded deltas %v != final snapshot %v", folded, reg.Snapshot())
	}
	if v, ok := folded["idle"]; !ok || v != 0 {
		t.Errorf("zero-delta key not preserved: %v", folded)
	}
}

// TestReserve: a process that restored a stage's ledger instead of running
// the stage reserves its keys, and from then on its snapshots carry the
// same key set as a process that ran it — zero until a metric registers,
// the metric's own value after.
func TestReserve(t *testing.T) {
	ran := NewRegistry()
	ran.Counter("cacheprobe/calibrate/probes").Add(4)
	ran.Histogram("cacheprobe/pop/fra/retry_delay_ms", []int64{50})
	restored := NewRegistry()
	restored.Reserve(ran.Snapshot())
	restored.Reserve(Ledger{"other/x": 1})
	restored.Counter("cacheprobe/probe/probes").Add(2)
	ran.Counter("cacheprobe/probe/probes").Add(2)

	got := restored.SnapshotPrefix("cacheprobe/")
	if !reflect.DeepEqual(got.Keys(), ran.SnapshotPrefix("cacheprobe/").Keys()) {
		t.Errorf("restored key set %v, ran %v", got.Keys(), ran.SnapshotPrefix("cacheprobe/").Keys())
	}
	if got["cacheprobe/calibrate/probes"] != 0 || got["cacheprobe/probe/probes"] != 2 {
		t.Errorf("reserved keys must read zero and registered ones their value: %v", got)
	}
	restored.Histogram("cacheprobe/pop/fra/retry_delay_ms", []int64{50}).Observe(7)
	if got := restored.Snapshot(); got["cacheprobe/pop/fra/retry_delay_ms/count"] != 1 {
		t.Errorf("a metric registered over a reserved key must report its own value: %v", got)
	}
	var nilReg *Registry
	nilReg.Reserve(Ledger{"x": 1})
}

func TestLedgerOps(t *testing.T) {
	l := Ledger{"a": 5, "b": 2}
	c := l.Clone()
	c["a"] = 99
	if l["a"] != 5 {
		t.Error("Clone must copy")
	}
	d := Ledger{"a": 7, "b": 2}.Sub(l)
	if !reflect.DeepEqual(d, Ledger{"a": 2, "b": 0}) {
		t.Errorf("Sub = %v", d)
	}
	l.Merge(Ledger{"b": 3, "c": 4})
	if !reflect.DeepEqual(l, Ledger{"a": 5, "b": 5, "c": 4}) {
		t.Errorf("Merge = %v", l)
	}
	if l.Get("c") != 4 || l.Get("missing") != 0 {
		t.Error("Get")
	}
	if got := l.Keys(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Keys = %v", got)
	}
}

func TestLedgerJSONDeterministic(t *testing.T) {
	a := Ledger{"z/count": 1, "a/probes": 2, "m/le=10": 3}
	b := Ledger{"m/le=10": 3, "a/probes": 2, "z/count": 1}
	aj, bj := a.JSON(), b.JSON()
	if !bytes.Equal(aj, bj) {
		t.Errorf("equal ledgers render differently:\n%s\n%s", aj, bj)
	}
	if aj[len(aj)-1] != '\n' {
		t.Error("JSON must end in a newline")
	}
	if nj := Ledger(nil).JSON(); string(nj) != "{}\n" {
		t.Errorf("nil ledger JSON = %q", nj)
	}
}

// TestConcurrentSums proves the order-independence claim: N goroutines
// hammering the same handles produce exact totals.
func TestConcurrentSums(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("n")
			h := reg.Histogram("h", []int64{500})
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	led := reg.Snapshot()
	if led["n"] != 8000 || led["h/count"] != 8000 || led["h/le=500"] != 8*501 {
		t.Errorf("concurrent totals wrong: %v", led)
	}
}
