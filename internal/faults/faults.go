// Package faults is a seeded, deterministic fault-injection layer for the
// DNS substrate. An Injector decorates any dnsnet.Exchanger — the
// in-memory transport's clients, the loopback UDP/TCP clients — and
// injects the failure modes live probing meets on the real Internet:
// packet loss, response duplication, latency jitter, forced TC=1
// truncation (driving UDP→TCP fallback), windowed per-target outages,
// brownouts (windowed latency inflation plus elevated loss) and flaps
// (periodic target up/down cycling).
//
// Every fault decision is a pure hash of (seed, target, server, txid,
// attempt) — never a draw from shared math/rand state — so a faulty
// campaign is bit-identical for any worker count and across
// checkpoint/resume: the k-th retry of probe X is dropped in every
// schedule or in none. Outage windows are evaluated against the query's
// *scheduled* timestamp (clockx.WithTime) when present, which keeps them
// deterministic under the parallel probing engine too.
package faults

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"clientmap/internal/clockx"
	"clientmap/internal/dnsnet"
	"clientmap/internal/dnswire"
	"clientmap/internal/metrics"
	"clientmap/internal/randx"
)

// Config describes the fault model. The zero value injects nothing.
type Config struct {
	// Seed keys every fault decision. Campaign harnesses overwrite it
	// with the run seed so one seed reproduces world, probes and faults.
	Seed randx.Seed
	// Loss is the probability in [0,1] that a query is dropped (the
	// client observes a timeout).
	Loss float64
	// Dup is the probability in [0,1] that a response is duplicated on
	// the wire. Exchange semantics absorb the duplicate (stub resolvers
	// discard stale datagrams), so duplication surfaces only in the
	// counters — and in the UDP client's tolerance tests.
	Dup float64
	// Trunc is the probability in [0,1] that a response comes back with
	// TC=1 and its answers stripped; the prober treats it as a retryable
	// failure, the re-query modelling the TC=1 → TCP fallback.
	Trunc float64
	// Jitter is the maximum extra latency per query; the injected delay
	// is a hash-derived fraction of it, shifting a scheduled query's
	// timestamp; nothing sleeps.
	Jitter time.Duration
	// Outages are windowed per-target blackouts: every query to a
	// matching target inside the window is dropped.
	Outages []Outage
	// Brownouts are windowed per-target degradations: extra latency and
	// elevated loss, with a per-window severity drawn by hash.
	Brownouts []Brownout
	// Flaps cycle a target up and down periodically; the down window's
	// position inside each cycle is drawn by hash.
	Flaps []Flap
}

// Outage is one blackout window, expressed as offsets from the
// injector's epoch (the campaign start).
type Outage struct {
	// Target names the injector the outage applies to (a vantage name,
	// "auth", …); empty matches every target.
	Target string
	// Start is the window's offset from the epoch.
	Start time.Duration
	// Duration is the window length.
	Duration time.Duration
}

func (o Outage) covers(target string, sinceEpoch time.Duration) bool {
	if o.Target != "" && o.Target != target {
		return false
	}
	return sinceEpoch >= o.Start && sinceEpoch < o.Start+o.Duration
}

// BrownoutWindow is the severity-window length for brownouts: every
// window draws its own hash-derived intensity, so a brownout waxes and
// wanes instead of being a flat degradation.
const BrownoutWindow = 15 * time.Minute

// Brownout is a windowed per-target degradation: queries inside the
// window pick up extra latency and an elevated drop probability, both
// scaled by a per-severity-window intensity in [0.5, 1] that is a pure
// hash of (seed, target, window index).
type Brownout struct {
	// Target names the injector the brownout applies to; empty matches
	// every target.
	Target string
	// Start is the window's offset from the epoch.
	Start time.Duration
	// Duration is the window length.
	Duration time.Duration
	// ExtraLatency is the peak added latency per query.
	ExtraLatency time.Duration
	// ExtraLoss is the peak added drop probability in [0,1].
	ExtraLoss float64
}

func (b Brownout) covers(target string, sinceEpoch time.Duration) bool {
	if b.Target != "" && b.Target != target {
		return false
	}
	return sinceEpoch >= b.Start && sinceEpoch < b.Start+b.Duration
}

// severity is the brownout's intensity for the severity window holding
// sinceEpoch: a pure hash of (seed, target, window index), mapped into
// [0.5, 1] so no covered window is ever fault-free.
func (b Brownout) severity(seed randx.Seed, target string, sinceEpoch time.Duration) float64 {
	w := int64(sinceEpoch / BrownoutWindow)
	// Byte-built, identical to the former
	// fmt.Sprintf("faults/brownout/%d/%s", w, target).
	var kb [64]byte
	k := append(kb[:0], "faults/brownout/"...)
	k = strconv.AppendInt(k, w, 10)
	k = append(k, '/')
	k = append(k, target...)
	return 0.5 + 0.5*seed.HashUnitB(k)
}

// Flap cycles a target up and down: within [Start, Start+Duration) every
// Period-long cycle contains one Down-long blackout whose offset inside
// the cycle is a pure hash of (seed, target, cycle index).
type Flap struct {
	// Target names the injector the flap applies to; empty matches every
	// target.
	Target string
	// Start is the flapping window's offset from the epoch.
	Start time.Duration
	// Duration is the flapping window length.
	Duration time.Duration
	// Period is the length of one up/down cycle.
	Period time.Duration
	// Down is the blackout length per cycle (must be < Period).
	Down time.Duration
}

// down reports whether the target is in a blackout at sinceEpoch.
func (f Flap) down(seed randx.Seed, target string, sinceEpoch time.Duration) bool {
	if f.Target != "" && f.Target != target {
		return false
	}
	if sinceEpoch < f.Start || sinceEpoch >= f.Start+f.Duration {
		return false
	}
	cycle := int64((sinceEpoch - f.Start) / f.Period)
	within := (sinceEpoch - f.Start) % f.Period
	// Byte-built, identical to the former
	// fmt.Sprintf("faults/flap/%d/%s", cycle, target).
	var kb [64]byte
	k := append(kb[:0], "faults/flap/"...)
	k = strconv.AppendInt(k, cycle, 10)
	k = append(k, '/')
	k = append(k, target...)
	off := time.Duration(seed.HashUnitB(k) * float64(f.Period-f.Down))
	return within >= off && within < off+f.Down
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return c.Loss > 0 || c.Dup > 0 || c.Trunc > 0 || c.Jitter > 0 ||
		len(c.Outages) > 0 || len(c.Brownouts) > 0 || len(c.Flaps) > 0
}

// badRate rejects rates outside [0,1] — including NaN, which compares
// false against both bounds and would otherwise slip through and poison
// every downstream hash comparison.
func badRate(v float64) bool {
	return math.IsNaN(v) || v < 0 || v > 1
}

// Validate checks every knob's range: rates in [0,1] (NaN rejected),
// non-negative durations, positive fault windows.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"loss", c.Loss}, {"dup", c.Dup}, {"trunc", c.Trunc}} {
		if badRate(r.v) {
			return fmt.Errorf("faults: %s rate %v outside [0,1]", r.name, r.v)
		}
	}
	if c.Jitter < 0 {
		return fmt.Errorf("faults: negative jitter %v", c.Jitter)
	}
	for _, o := range c.Outages {
		if o.Start < 0 {
			return fmt.Errorf("faults: outage %q starts before the campaign (%v)", o.Target, o.Start)
		}
		if o.Duration <= 0 {
			return fmt.Errorf("faults: outage %q has non-positive duration %v", o.Target, o.Duration)
		}
	}
	for _, b := range c.Brownouts {
		if b.Start < 0 {
			return fmt.Errorf("faults: brownout %q starts before the campaign (%v)", b.Target, b.Start)
		}
		if b.Duration <= 0 {
			return fmt.Errorf("faults: brownout %q has non-positive duration %v", b.Target, b.Duration)
		}
		if b.ExtraLatency < 0 {
			return fmt.Errorf("faults: brownout %q has negative extra latency %v", b.Target, b.ExtraLatency)
		}
		if badRate(b.ExtraLoss) {
			return fmt.Errorf("faults: brownout %q extra loss %v outside [0,1]", b.Target, b.ExtraLoss)
		}
	}
	for _, f := range c.Flaps {
		if f.Start < 0 {
			return fmt.Errorf("faults: flap %q starts before the campaign (%v)", f.Target, f.Start)
		}
		if f.Duration <= 0 {
			return fmt.Errorf("faults: flap %q has non-positive duration %v", f.Target, f.Duration)
		}
		if f.Period <= 0 {
			return fmt.Errorf("faults: flap %q has non-positive period %v", f.Target, f.Period)
		}
		if f.Down <= 0 || f.Down >= f.Period {
			return fmt.Errorf("faults: flap %q down time %v outside (0, period %v)", f.Target, f.Down, f.Period)
		}
	}
	return nil
}

// String renders the config in the canonical -faults spec grammar, so
// for any parseable config Parse(c.String()) reproduces c (with windows
// in sorted order). The seed is deliberately absent — harnesses key it
// to the run seed.
func (c Config) String() string {
	if !c.Enabled() {
		return "off"
	}
	var parts []string
	if c.Loss > 0 {
		parts = append(parts, fmt.Sprintf("loss=%g", c.Loss))
	}
	if c.Dup > 0 {
		parts = append(parts, fmt.Sprintf("dup=%g", c.Dup))
	}
	if c.Trunc > 0 {
		parts = append(parts, fmt.Sprintf("trunc=%g", c.Trunc))
	}
	if c.Jitter > 0 {
		parts = append(parts, fmt.Sprintf("jitter=%s", c.Jitter))
	}
	outs := append([]Outage(nil), c.Outages...)
	sort.Slice(outs, func(i, j int) bool {
		if outs[i].Target != outs[j].Target {
			return outs[i].Target < outs[j].Target
		}
		return outs[i].Start < outs[j].Start
	})
	for _, o := range outs {
		parts = append(parts, fmt.Sprintf("outage=%s@%s+%s", o.Target, o.Start, o.Duration))
	}
	brs := append([]Brownout(nil), c.Brownouts...)
	sort.Slice(brs, func(i, j int) bool {
		if brs[i].Target != brs[j].Target {
			return brs[i].Target < brs[j].Target
		}
		return brs[i].Start < brs[j].Start
	})
	for _, b := range brs {
		parts = append(parts, fmt.Sprintf("brownout=%s@%s+%s*%s*%g", b.Target, b.Start, b.Duration, b.ExtraLatency, b.ExtraLoss))
	}
	fls := append([]Flap(nil), c.Flaps...)
	sort.Slice(fls, func(i, j int) bool {
		if fls[i].Target != fls[j].Target {
			return fls[i].Target < fls[j].Target
		}
		return fls[i].Start < fls[j].Start
	})
	for _, f := range fls {
		parts = append(parts, fmt.Sprintf("flap=%s@%s+%s*%s*%s", f.Target, f.Start, f.Duration, f.Period, f.Down))
	}
	return strings.Join(parts, ",")
}

// Fingerprint renders the fault model canonically for pipeline stage
// fingerprints: any change to it must invalidate the campaign's
// checkpoints. Identical to String — the canonical spec is the
// fingerprint.
func (c Config) Fingerprint() string { return c.String() }

// The injected-fault ledger keys: one metrics-registry counter per
// fault kind. Campaign stages fold them into their checkpointed ledger
// with every other campaign counter, and the reliability report and
// -metrics-json read them back under these names.
const (
	KeyDrops         = "faults/injected_drops"
	KeyOutageDrops   = "faults/outage_drops"
	KeyTruncations   = "faults/truncations"
	KeyDuplicates    = "faults/duplicates"
	KeyBrownoutDrops = "faults/brownout_drops"
	KeyFlapDrops     = "faults/flap_drops"
)

// counters are an injector's resolved handles, one per key above. Every
// count is an order-independent sum, identical for any worker schedule.
type counters struct {
	drops, outageDrops, truncations, duplicates *metrics.Counter
	brownoutDrops, flapDrops                    *metrics.Counter
}

// Register resolves all six injected-fault counters in reg (nil
// discards). Campaigns register them on every run, faults injected or
// not, so the ledger's key set never depends on the fault spec.
func Register(reg *metrics.Registry) {
	register(reg)
}

func register(reg *metrics.Registry) counters {
	return counters{
		drops:         reg.Counter(KeyDrops),
		outageDrops:   reg.Counter(KeyOutageDrops),
		truncations:   reg.Counter(KeyTruncations),
		duplicates:    reg.Counter(KeyDuplicates),
		brownoutDrops: reg.Counter(KeyBrownoutDrops),
		flapDrops:     reg.Counter(KeyFlapDrops),
	}
}

// attemptKey carries the retry attempt number through a context.
type attemptKey struct{}

// WithAttempt tags ctx with the query's retry attempt number (0 = first
// try). The injector folds it into every fault hash, so each retry of
// the same transaction draws an independent fault decision.
func WithAttempt(ctx context.Context, attempt int) context.Context {
	return context.WithValue(ctx, attemptKey{}, attempt)
}

// AttemptFrom reports the retry attempt carried by ctx (0 when untagged).
func AttemptFrom(ctx context.Context) int {
	a, _ := ctx.Value(attemptKey{}).(int)
	return a
}

// meterKey carries a latency Meter through a context.
type meterKey struct{}

// Meter accumulates the latency injected into one exchange (jitter plus
// brownout inflation). Hedging policies read it to decide whether a try
// was "slow": simulated latency shifts scheduled timestamps rather than
// wall time, so elapsed wall time is meaningless in simulation. A Meter
// is owned by the single goroutine driving its exchange.
type Meter struct{ d time.Duration }

// Injected reports the total latency injected so far.
func (m *Meter) Injected() time.Duration {
	if m == nil {
		return 0
	}
	return m.d
}

// WithMeter attaches a fresh latency meter to ctx and returns it. Every
// injector on the exchange path adds its injected delay to the meter.
func WithMeter(ctx context.Context) (context.Context, *Meter) {
	m := &Meter{}
	return context.WithValue(ctx, meterKey{}, m), m
}

// meterAdd credits d to the meter carried by ctx, if any.
func meterAdd(ctx context.Context, d time.Duration) {
	if m, ok := ctx.Value(meterKey{}).(*Meter); ok {
		m.d += d
	}
}

// Injector decorates an Exchanger with the configured fault model.
type Injector struct {
	cfg      Config
	target   string
	epoch    time.Time
	clock    *clockx.Sim
	counters counters
	next     dnsnet.Exchanger
}

// New wraps next in a fault injector. target labels this transport path
// (a vantage name, "auth") for per-target outages and hash keying; epoch
// anchors outage windows (the campaign start); clock resolves "now" for
// unscheduled queries. Every injected fault counts into reg under its
// Key… name (nil discards).
func New(cfg Config, target string, epoch time.Time, clock *clockx.Sim, reg *metrics.Registry, next dnsnet.Exchanger) *Injector {
	return &Injector{cfg: cfg, target: target, epoch: epoch, clock: clock, counters: register(reg), next: next}
}

// delay injects d of latency: on scheduled queries it shifts the
// scheduled timestamp; an unscheduled query is left as it is. Either way
// the latency meter (if any) observes it.
func (in *Injector) delay(ctx context.Context, d time.Duration) context.Context {
	if d <= 0 {
		return ctx
	}
	meterAdd(ctx, d)
	if t, ok := clockx.TimeFrom(ctx); ok {
		// Scheduled query: the delay shifts when the server sees it.
		return clockx.WithTime(ctx, t.Add(d))
	}
	return ctx
}

// decide reports whether the fault keyed by kind fires for this query at
// probability p. Pure hash — no state, no ordering sensitivity. The hash
// domain is byte-built in stack scratch, identical to the former
// "faults/" + kind + "/" + key concatenation.
func (in *Injector) decide(kind string, key []byte, p float64) bool {
	if p <= 0 {
		return false
	}
	var kb [160]byte
	k := append(kb[:0], "faults/"...)
	k = append(k, kind...)
	k = append(k, '/')
	k = append(k, key...)
	return in.cfg.Seed.HashUnitB(k) < p
}

// Exchange implements dnsnet.Exchanger.
func (in *Injector) Exchange(ctx context.Context, server string, query *dnswire.Message) (*dnswire.Message, error) {
	// Variable fields (attempt, txid) lead the key: FNV-1a mixes early
	// bytes through every later round, so the trailing constant fields
	// give the short numeric differences full avalanche into HashUnit's
	// high bits — trailing them instead would leave the k-th retry's
	// decision nearly identical to the first try's. Byte-built in stack
	// scratch, identical to the former
	// fmt.Sprintf("%d/%d/%s/%s", attempt, id, server, target) — the
	// injector sits on the probe hot path, so the per-query formatting
	// allocations were hot.
	var kb [128]byte
	key := strconv.AppendInt(kb[:0], int64(AttemptFrom(ctx)), 10)
	key = append(key, '/')
	key = strconv.AppendInt(key, int64(query.ID), 10)
	key = append(key, '/')
	key = append(key, server...)
	key = append(key, '/')
	key = append(key, in.target...)

	if in.cfg.Jitter > 0 {
		var jb [144]byte
		jk := append(jb[:0], "faults/jitter/"...)
		jk = append(jk, key...)
		j := time.Duration(in.cfg.Seed.HashUnitB(jk) * float64(in.cfg.Jitter))
		ctx = in.delay(ctx, j)
	}

	since := clockx.NowIn(ctx, in.clock).Sub(in.epoch)

	// Brownout latency is injected before the drop decisions so a
	// browned-out try that survives still *looks* slow to hedging
	// policies reading the latency meter.
	extraLoss := 0.0
	for _, b := range in.cfg.Brownouts {
		if !b.covers(in.target, since) {
			continue
		}
		sev := b.severity(in.cfg.Seed, in.target, since)
		if b.ExtraLatency > 0 {
			ctx = in.delay(ctx, time.Duration(sev*float64(b.ExtraLatency)))
		}
		extraLoss += sev * b.ExtraLoss
	}

	for _, o := range in.cfg.Outages {
		if o.covers(in.target, since) {
			in.counters.outageDrops.IncIn(ctx)
			return nil, dnsnet.ErrTimeout
		}
	}

	for _, f := range in.cfg.Flaps {
		if f.down(in.cfg.Seed, in.target, since) {
			in.counters.flapDrops.IncIn(ctx)
			return nil, dnsnet.ErrTimeout
		}
	}

	if extraLoss > 0 && in.decide("brownout-loss", key, extraLoss) {
		in.counters.brownoutDrops.IncIn(ctx)
		return nil, dnsnet.ErrTimeout
	}

	if in.decide("loss", key, in.cfg.Loss) {
		in.counters.drops.IncIn(ctx)
		return nil, dnsnet.ErrTimeout
	}

	resp, err := in.next.Exchange(ctx, server, query)
	if err != nil {
		return resp, err
	}
	if in.decide("dup", key, in.cfg.Dup) {
		// The exchange layer absorbs duplicates (stale datagrams are
		// discarded by ID matching); only the counter observes them.
		in.counters.duplicates.IncIn(ctx)
	}
	if in.decide("trunc", key, in.cfg.Trunc) {
		in.counters.truncations.IncIn(ctx)
		tr := *resp
		tr.Truncated = true
		tr.Answers = nil
		return &tr, nil
	}
	return resp, nil
}
