package faults

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"clientmap/internal/clockx"
	"clientmap/internal/dnsnet"
	"clientmap/internal/dnswire"
	"clientmap/internal/metrics"
	"clientmap/internal/randx"
)

// okExchanger answers every query with a one-record reply.
type okExchanger struct{}

func (okExchanger) Exchange(_ context.Context, _ string, q *dnswire.Message) (*dnswire.Message, error) {
	r := q.Reply()
	r.Answers = []dnswire.RR{{Name: q.Question().Name, Class: dnswire.ClassINET, TTL: 60, Data: dnswire.A{Addr: 1}}}
	return r, nil
}

func newInjector(cfg Config, clock *clockx.Sim) *Injector {
	if cfg.Seed == 0 {
		cfg.Seed = randx.Seed(7)
	}
	return New(cfg, "vantage", clockx.Epoch, clock, nil, okExchanger{})
}

// outcome captures everything a fault decision can change about one query.
type outcome struct {
	err       error
	truncated bool
}

func observe(in *Injector, ctx context.Context, id uint16) outcome {
	resp, err := in.Exchange(ctx, "srv", dnswire.NewQuery(id, "d.test", dnswire.TypeA))
	o := outcome{err: err}
	if resp != nil {
		o.truncated = resp.Truncated
	}
	return o
}

// TestScheduleIndependence is the layer's core property: fault decisions
// are pure hashes of (seed, target, txid, attempt), so replaying the same
// query population in a shuffled order — as a different worker schedule
// would — must reproduce exactly the same per-query outcomes.
func TestScheduleIndependence(t *testing.T) {
	const n = 4000
	cfg := Config{Seed: randx.Seed(99), Loss: 0.05, Dup: 0.03, Trunc: 0.04}

	run := func(order []int) map[int]outcome {
		in := newInjector(cfg, clockx.NewSim(clockx.Epoch))
		out := make(map[int]outcome, n)
		for _, i := range order {
			ctx := context.Background()
			if i%3 == 1 { // mix retry attempts into the population
				ctx = WithAttempt(ctx, 1+i%2)
			}
			out[i] = observe(in, ctx, uint16(i+1))
		}
		return out
	}

	forward := make([]int, n)
	for i := range forward {
		forward[i] = i
	}
	shuffled := append([]int(nil), forward...)
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	a, b := run(forward), run(shuffled)
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			t.Fatalf("query %d: outcome depends on schedule: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestEmpiricalRates: over a large query population the injected loss,
// truncation and duplication rates must track the configured
// probabilities, and distinct retry attempts of the same transaction must
// draw independent decisions (the property the retry policy relies on —
// a weakly mixed hash would re-drop every retry).
func TestEmpiricalRates(t *testing.T) {
	const n = 20000
	cfg := Config{Seed: randx.Seed(3), Loss: 0.1, Trunc: 0.05}
	reg := metrics.NewRegistry()
	in := New(cfg, "vantage", clockx.Epoch, clockx.NewSim(clockx.Epoch), reg, okExchanger{})

	var droppedIDs []uint16
	for i := 0; i < n; i++ {
		if o := observe(in, context.Background(), uint16(i%0xFFFF+1)); o.err != nil {
			droppedIDs = append(droppedIDs, uint16(i%0xFFFF+1))
		}
	}
	dropped := len(droppedIDs)

	// Snapshot before the retry-independence probes below, which roll
	// fresh loss decisions and would skew the counters.
	st := reg.Snapshot()

	droppedThenDropped := 0
	for _, id := range droppedIDs {
		if observe(in, WithAttempt(context.Background(), 1), id).err != nil {
			droppedThenDropped++
		}
	}

	checkRate := func(name string, got int64, base int, want float64) {
		t.Helper()
		rate := float64(got) / float64(base)
		if math.Abs(rate-want) > 3*math.Sqrt(want*(1-want)/float64(base)) {
			t.Errorf("%s rate = %.4f over %d queries, want %.4f ± 3σ", name, rate, base, want)
		}
	}
	checkRate("loss", st[KeyDrops], n, cfg.Loss)
	// Truncation only applies to queries that got a response.
	checkRate("trunc", st[KeyTruncations], n-dropped, cfg.Trunc)
	// Retry independence: P(drop | first try dropped) must still be ~Loss,
	// not ~1.
	checkRate("retry-drop", int64(droppedThenDropped), dropped, cfg.Loss)
}

// TestOutageWindow: queries inside a target's blackout window time out;
// queries outside it, on other targets, or at other times pass.
func TestOutageWindow(t *testing.T) {
	cfg := Config{Outages: []Outage{{Target: "vantage", Start: 2 * time.Hour, Duration: time.Hour}}}
	clock := clockx.NewSim(clockx.Epoch)
	in := newInjector(cfg, clock)

	at := func(offset time.Duration) context.Context {
		return clockx.WithTime(context.Background(), clockx.Epoch.Add(offset))
	}
	if o := observe(in, at(2*time.Hour+30*time.Minute), 1); o.err != dnsnet.ErrTimeout {
		t.Errorf("query inside the window: err = %v, want ErrTimeout", o.err)
	}
	if o := observe(in, at(time.Hour), 2); o.err != nil {
		t.Errorf("query before the window failed: %v", o.err)
	}
	if o := observe(in, at(3*time.Hour), 3); o.err != nil {
		t.Errorf("query after the window failed: %v", o.err)
	}

	// An injector for a different target ignores the window entirely.
	other := New(cfg, "other", clockx.Epoch, clock, nil, okExchanger{})
	if _, err := other.Exchange(at(2*time.Hour+30*time.Minute), "srv",
		dnswire.NewQuery(4, "d.test", dnswire.TypeA)); err != nil {
		t.Errorf("other target dropped during a scoped outage: %v", err)
	}

	// An empty target blacks out everything.
	all := New(Config{Outages: []Outage{{Start: 0, Duration: time.Hour}}}, "anything",
		clockx.Epoch, clock, nil, okExchanger{})
	if _, err := all.Exchange(at(0), "srv", dnswire.NewQuery(5, "d.test", dnswire.TypeA)); err != dnsnet.ErrTimeout {
		t.Errorf("wildcard outage: err = %v, want ErrTimeout", err)
	}
}

// TestJitterShiftsScheduledTime: jitter on a scheduled (simulated) query
// moves its timestamp forward deterministically and never sleeps.
func TestJitterShiftsScheduledTime(t *testing.T) {
	cfg := Config{Seed: randx.Seed(11), Jitter: 100 * time.Millisecond}
	var seen time.Time
	in := New(cfg, "v", clockx.Epoch, clockx.NewSim(clockx.Epoch), nil,
		exchangerFunc(func(ctx context.Context, _ string, q *dnswire.Message) (*dnswire.Message, error) {
			seen, _ = clockx.TimeFrom(ctx)
			return q.Reply(), nil
		}))

	base := clockx.Epoch.Add(time.Hour)
	ctx := clockx.WithTime(context.Background(), base)
	if _, err := in.Exchange(ctx, "srv", dnswire.NewQuery(9, "d.test", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	shift := seen.Sub(base)
	if shift < 0 || shift >= cfg.Jitter {
		t.Errorf("jitter shift = %v, want in [0, %v)", shift, cfg.Jitter)
	}

	// Same query, same shift: jitter is a hash, not a draw.
	first := seen
	if _, err := in.Exchange(ctx, "srv", dnswire.NewQuery(9, "d.test", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	if !seen.Equal(first) {
		t.Error("jitter differs between identical queries")
	}
}

type exchangerFunc func(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error)

func (f exchangerFunc) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	return f(ctx, server, q)
}

func TestValidate(t *testing.T) {
	good := Config{Loss: 0.5, Dup: 1, Trunc: 0, Jitter: time.Second,
		Outages: []Outage{{Target: "x", Start: 0, Duration: time.Minute}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Loss: -0.1},
		{Loss: 1.1},
		{Dup: 2},
		{Trunc: -1},
		{Jitter: -time.Second},
		{Outages: []Outage{{Start: -time.Hour, Duration: time.Minute}}},
		{Outages: []Outage{{Start: time.Hour, Duration: 0}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestFingerprint(t *testing.T) {
	if got := (Config{}).Fingerprint(); got != "off" {
		t.Errorf("zero config fingerprint = %q, want off", got)
	}
	// The seed is keyed to the run seed by harnesses and deliberately
	// absent; everything else must show up.
	a := Config{Seed: 1, Loss: 0.02, Jitter: 50 * time.Millisecond,
		Outages: []Outage{{Target: "b", Start: time.Hour, Duration: time.Hour}, {Target: "a", Start: 0, Duration: time.Minute}}}
	b := a
	b.Seed = 2
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint depends on the seed")
	}
	c := a
	c.Loss = 0.03
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("fingerprint misses a loss change")
	}
	// Outage order must not matter (sorted canonically).
	d := a
	d.Outages = []Outage{a.Outages[1], a.Outages[0]}
	if a.Fingerprint() != d.Fingerprint() {
		t.Error("fingerprint depends on outage order")
	}
}

func TestParseSpec(t *testing.T) {
	c, err := Parse("loss=0.02,dup=0.01,trunc=0.005,jitter=50ms,outage=fra@24h+6h,outage=@0s+1h")
	if err != nil {
		t.Fatal(err)
	}
	if c.Loss != 0.02 || c.Dup != 0.01 || c.Trunc != 0.005 || c.Jitter != 50*time.Millisecond {
		t.Errorf("rates: %+v", c)
	}
	if len(c.Outages) != 2 || c.Outages[0].Target != "fra" || c.Outages[1].Target != "" {
		t.Errorf("outages: %+v", c.Outages)
	}
	for _, spec := range []string{"", "off", " off "} {
		c, err := Parse(spec)
		if err != nil || c.Enabled() {
			t.Errorf("Parse(%q) = %+v, %v; want disabled config", spec, c, err)
		}
	}
	for _, spec := range []string{
		"loss=2", "loss=x", "bogus=1", "loss", "jitter=-1s",
		"outage=fra", "outage=fra@1h", "outage=fra@1h+0s", "outage=fra@bad+1h",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

// TestCountersNilSafe: an injector built on a nil registry injects
// exactly what one on a live registry injects and counts nothing, and
// Register gives a registry all six keys before any fault fires, so a
// fault-free campaign's ledger has the same keys as a faulty one's.
func TestCountersNilSafe(t *testing.T) {
	Register(nil)
	reg := metrics.NewRegistry()
	Register(reg)
	keys := []string{KeyDrops, KeyOutageDrops, KeyTruncations, KeyDuplicates, KeyBrownoutDrops, KeyFlapDrops}
	if led := reg.Snapshot(); len(led) != len(keys) {
		t.Errorf("registered ledger = %v, want the %d fault keys", led, len(keys))
	}
	for _, k := range keys {
		if v, ok := reg.Snapshot()[k]; !ok || v != 0 {
			t.Errorf("%s = %d (registered %v), want a zero key", k, v, ok)
		}
	}

	cfg := Config{Seed: randx.Seed(5), Loss: 0.2, Dup: 0.2, Trunc: 0.2}
	bare := New(cfg, "v", clockx.Epoch, clockx.NewSim(clockx.Epoch), nil, okExchanger{})
	counted := New(cfg, "v", clockx.Epoch, clockx.NewSim(clockx.Epoch), reg, okExchanger{})
	for id := uint16(1); id <= 500; id++ {
		if a, b := observe(bare, context.Background(), id), observe(counted, context.Background(), id); a != b {
			t.Fatalf("query %d: nil-registry outcome %+v, counted outcome %+v", id, a, b)
		}
	}
	for _, k := range []string{KeyDrops, KeyTruncations, KeyDuplicates} {
		if reg.Counter(k).Value() == 0 {
			t.Errorf("%s not counted", k)
		}
	}
}

// TestCountersTallied: an injector increments through the context's
// metrics.Tally when one is present, so a probe batch's fault counts
// reach the registry only when the batch flushes.
func TestCountersTallied(t *testing.T) {
	reg := metrics.NewRegistry()
	in := New(Config{Seed: randx.Seed(5), Loss: 1}, "v", clockx.Epoch, clockx.NewSim(clockx.Epoch), reg, okExchanger{})
	tally := &metrics.Tally{}
	ctx := metrics.WithTally(context.Background(), tally)
	for id := uint16(1); id <= 10; id++ {
		observe(in, ctx, id)
	}
	if v := reg.Counter(KeyDrops).Value(); v != 0 {
		t.Errorf("drops before flush = %d, want 0", v)
	}
	tally.Flush()
	if v := reg.Counter(KeyDrops).Value(); v != 10 {
		t.Errorf("drops after flush = %d, want 10", v)
	}
}
