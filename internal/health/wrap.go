package health

import (
	"context"
	"errors"

	"clientmap/internal/clockx"
	"clientmap/internal/dnsnet"
	"clientmap/internal/dnswire"
	"clientmap/internal/metrics"
)

// ErrOpen is returned by a breaker-wrapped exchanger when the target's
// circuit is open at the query's scheduled time. It is the safety net
// under the failover planner: planned traffic avoids open targets, so
// fast-fails only fire when a breaker opens mid-pass under a frozen
// plan.
var ErrOpen = errors.New("health: circuit open")

// Wrap decorates next with target's circuit breaker: open circuits
// fast-fail, everything else passes through and has its outcome
// observed. Wrap outermost — outside Instrument, which is outside the
// fault injector — so the breaker judges exactly what the caller sees,
// injected faults included, and its fast-fails never pollute the
// window sums (a rejected query says nothing about the target).
func Wrap(t *Tracker, target string, clock *clockx.Sim, next dnsnet.Exchanger) dnsnet.Exchanger {
	if t == nil {
		return next
	}
	return &breakerExchanger{
		t:        t,
		target:   target,
		clock:    clock,
		next:     next,
		fastFail: t.reg.Counter("health/breaker/fast_fail"),
	}
}

type breakerExchanger struct {
	t        *Tracker
	target   string
	clock    *clockx.Sim
	next     dnsnet.Exchanger
	fastFail *metrics.Counter
}

func (b *breakerExchanger) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	at := clockx.NowIn(ctx, b.clock)
	if b.t.State(b.target, at) == Open {
		b.fastFail.Inc()
		return nil, ErrOpen
	}
	resp, err := b.next.Exchange(ctx, server, q)
	// A nil response with a nil error is the in-memory transport's
	// dropped packet; it counts as a failure like any timeout.
	b.t.Observe(b.target, at, err == nil && resp != nil)
	return resp, err
}
