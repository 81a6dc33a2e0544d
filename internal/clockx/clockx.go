// Package clockx abstracts time for the measurement pipelines. The
// measurement core (cacheprobe, faults, health) runs only on the
// simulated clock: a 120-hour probing campaign takes milliseconds, with
// cache TTLs, rate limits and diurnal activity all driven by the same
// time source. The wall clock serves the live-socket surfaces: gpdns
// behind cachescan -serve, dnsnet's token bucket in liveprobe, and the
// serving daemon and its limiter.
package clockx

import (
	"context"
	"sync"
	"time"
)

// Clock is the time source used by servers, caches and probers.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks until d has elapsed on this clock.
	Sleep(d time.Duration)
}

// Real is the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Sim is a simulated clock that only moves when advanced. Sleep advances
// the clock rather than blocking, so single-goroutine simulations of long
// campaigns run at memory speed. Sim is safe for concurrent use.
type Sim struct {
	mu  sync.Mutex
	now time.Time
}

// Epoch is the default start time of simulations: the Monday of the week
// the paper's measurements reference (2021-09-20, appendix A.1).
var Epoch = time.Date(2021, time.September, 20, 0, 0, 0, 0, time.UTC)

// NewSim returns a simulated clock starting at start (or Epoch if zero).
func NewSim(start time.Time) *Sim {
	if start.IsZero() {
		start = Epoch
	}
	return &Sim{now: start}
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Sleep implements Clock by advancing the simulated time.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	s.now = s.now.Add(d)
	s.mu.Unlock()
}

// Advance moves the clock forward by d.
func (s *Sim) Advance(d time.Duration) { s.Sleep(d) }

// Set jumps the clock to t (which may be before now; simulations that
// replay traces use this to rewind between runs).
func (s *Sim) Set(t time.Time) {
	s.mu.Lock()
	s.now = t
	s.mu.Unlock()
}

// ctxKey carries a scheduled timestamp through a context.
type ctxKey struct{}

// TimeCarrier is a context carrying a scheduled timestamp in a plain
// struct field. Reading it through TimeFrom is a type assertion — no
// interface boxing of the time.Time, no linear Value chain walk — which
// is what keeps the per-probe schedule stamp off the campaign's
// allocation profile. The probe engine reuses one carrier per task batch
// by re-assigning T between probes; that is safe because simulated
// servers read the timestamp synchronously during the exchange and never
// retain the context.
type TimeCarrier struct {
	context.Context
	T time.Time
}

// Value implements context.Context: ctxKey resolves to the carried
// timestamp (for readers that only have a wrapped context), everything
// else delegates to the parent.
func (c *TimeCarrier) Value(key any) any {
	if _, ok := key.(ctxKey); ok {
		return c.T
	}
	return c.Context.Value(key)
}

// WithTime returns a context carrying t as the query's scheduled send
// time. The parallel probing engine computes every probe's timestamp up
// front and attaches it here instead of mutating a shared Sim clock, so
// concurrent workers never race on simulated time and every simulated
// server sees the probe at the moment it was scheduled for, regardless of
// the order workers actually issue probes in.
func WithTime(ctx context.Context, t time.Time) context.Context {
	return &TimeCarrier{Context: ctx, T: t}
}

// TimeFrom reports the scheduled timestamp carried by ctx, if any.
func TimeFrom(ctx context.Context) (time.Time, bool) {
	if c, ok := ctx.(*TimeCarrier); ok {
		return c.T, true
	}
	t, ok := ctx.Value(ctxKey{}).(time.Time)
	return t, ok
}

// NowIn resolves "now" for a request: the scheduled timestamp carried by
// ctx when present, else c.Now(). Time-dependent simulated servers read
// the clock through this so scheduled (parallel campaign) and unscheduled
// (live, event-driven, test) queries share one code path.
func NowIn(ctx context.Context, c Clock) time.Time {
	if t, ok := TimeFrom(ctx); ok {
		return t
	}
	return c.Now()
}
