package cacheprobe

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"clientmap/internal/clockx"
	"clientmap/internal/dnsnet"
	"clientmap/internal/dnswire"
	"clientmap/internal/faults"
	"clientmap/internal/metrics"
	"clientmap/internal/spec"
)

// Retry is the per-query retry policy. The zero value means a single try
// — the paper's behaviour, where a timeout simply counts as a miss.
type Retry struct {
	// Attempts is the total tries per logical query (1 = no retries).
	Attempts int
	// Timeout only keys fingerprints: it keeps parsing and printing so
	// existing -retries specs and pinned stage fingerprints hold, but
	// simulated exchanges are instantaneous and nothing arms a timer.
	Timeout time.Duration
	// Backoff is the base delay before the first retry; it doubles per
	// retry, plus a hash-derived jitter of up to one base interval. The
	// delay shifts a scheduled query's timestamp; nothing sleeps.
	Backoff time.Duration
	// BudgetPerPoP caps the extra tries one PoP may spend per campaign
	// stage — the stand-in for drawing retries from the per-PoP rate
	// limiter's token bucket (0 = unlimited). The budget is spread across
	// the stage's tasks deterministically (see Prober.retryAllowance), so
	// which probes get retries never depends on worker schedule.
	BudgetPerPoP int
}

// Enabled reports whether the policy retries at all.
func (r Retry) Enabled() bool { return r.Attempts > 1 }

// maxAttempts bounds Retry.Attempts: hedge attempts are tagged from
// hedgeAttemptBase up, so a larger bound would let a retry's fault
// decisions collide with a hedge's, and it keeps a task's retry and
// hedge counts within probeResult's 16-bit slots (see maxRedundancy).
const maxAttempts = hedgeAttemptBase

// Validate checks the policy's ranges: non-negative everything, and at
// most maxAttempts tries.
func (r Retry) Validate() error {
	if r.Attempts < 0 {
		return fmt.Errorf("retries: negative attempts %d", r.Attempts)
	}
	if r.Attempts > maxAttempts {
		return fmt.Errorf("retries: attempts %d above the maximum %d", r.Attempts, maxAttempts)
	}
	if r.Timeout < 0 {
		return fmt.Errorf("retries: negative timeout %v", r.Timeout)
	}
	if r.Backoff < 0 {
		return fmt.Errorf("retries: negative backoff %v", r.Backoff)
	}
	if r.BudgetPerPoP < 0 {
		return fmt.Errorf("retries: negative budget %d", r.BudgetPerPoP)
	}
	return nil
}

// Fingerprint renders the policy canonically for pipeline stage
// fingerprints: retry changes re-probe the affected stages.
func (r Retry) Fingerprint() string {
	if !r.Enabled() {
		return "off"
	}
	return fmt.Sprintf("attempts=%d,timeout=%s,backoff=%s,budget=%d",
		r.Attempts, r.Timeout, r.Backoff, r.BudgetPerPoP)
}

// ParseRetry parses a -retries flag spec such as
// "attempts=3,timeout=2s,backoff=100ms,budget=1000". Empty and "off"
// mean no retries. Ranges are validated: 1 ≤ attempts ≤ 1024, durations
// and the budget non-negative.
func ParseRetry(s string) (Retry, error) {
	const grammar = spec.Grammar("retries")
	var r Retry
	on := false
	err := grammar.Each(s, func(k, v string) (err error) {
		on = true
		switch k {
		case "attempts":
			r.Attempts, err = grammar.Int(k, v)
		case "timeout":
			r.Timeout, err = grammar.Duration(k, v)
		case "backoff":
			r.Backoff, err = grammar.Duration(k, v)
		case "budget":
			r.BudgetPerPoP, err = grammar.Int(k, v)
		default:
			err = grammar.Unknown(k, "attempts, timeout, backoff, budget")
		}
		return err
	})
	if err == nil && on && r.Attempts == 0 {
		err = grammar.Errorf("spec %q sets no attempts (attempts=N required)", s)
	}
	if err == nil {
		err = r.Validate()
	}
	if err != nil {
		return Retry{}, err
	}
	return r, nil
}

// retryAccount is one task's retry ledger: its deterministic allowance of
// extra tries and what it spent. Each account belongs to one task on one
// worker (a local of the task loop), so the fields are plain ints; the
// probing pass narrows the counts into the task's slot
// (probeResult.record), and the merge sums them into the campaign in
// canonical order.
type retryAccount struct {
	// remaining is the budgeted extra tries left (-1 = unlimited).
	remaining int
	// spent counts extra tries consumed.
	spent int
	// recovered counts queries where a retry turned a failure into an
	// answer.
	recovered int
	// exhausted counts queries that were still failing when the budget
	// clamp (not the policy's attempt bound) cut them off.
	exhausted int
	// delays, when set, observes each logical query's accumulated
	// backoff-plus-jitter latency (the per-PoP retry-latency histogram).
	// Only delayed queries are observed — a first-try success records
	// nothing — and every delay is a pure hash of the query key, so the
	// histogram is deterministic for any worker schedule.
	delays *metrics.Histogram
	// hedge, when set, is the secondary path for the hedging policy:
	// failed or slow tries issue one deterministic secondary attempt
	// against it (see Prober.tryOnce).
	hedge *hedgeOption
	// hedgeFired and hedgeWon count secondary attempts issued and
	// secondary answers preferred, folded into the campaign's health
	// ledger at merge time.
	hedgeFired, hedgeWon int
}

// add folds another account's spend into this one (merge-time totals).
func (a *retryAccount) add(o *retryAccount) {
	a.spent += o.spent
	a.recovered += o.recovered
	a.exhausted += o.exhausted
	a.hedgeFired += o.hedgeFired
	a.hedgeWon += o.hedgeWon
}

// retryAllowance spreads the per-PoP retry budget across a stage's tasks
// without any shared state: base share floor(budget/tasks) plus one with
// probability frac(budget/tasks), decided by a hash of (seed, scope,
// task index). Expected total equals the budget; each task's allowance is
// known before it runs, so — unlike a contended token bucket — the
// outcome cannot depend on worker arrival order. Returns -1 (unlimited by
// budget) when no budget is set.
func (p *Prober) retryAllowance(scope string, ti, tasks int) int {
	r := p.cfg.Retry
	if !r.Enabled() {
		return 0
	}
	if r.BudgetPerPoP <= 0 || tasks <= 0 {
		return -1
	}
	share := float64(r.BudgetPerPoP) / float64(tasks)
	allow := int(math.Floor(share))
	// The task index leads the hash key (FNV-1a avalanches early bytes,
	// not trailing ones) so neighbouring tasks round independently. The
	// key is byte-built in stack scratch, identical to the former
	// fmt.Sprintf("cacheprobe/retrybudget/%d/%s", ti, scope).
	if frac := share - float64(allow); frac > 0 {
		var kb [96]byte
		k := append(kb[:0], "cacheprobe/retrybudget/"...)
		k = strconv.AppendInt(k, int64(ti), 10)
		k = append(k, '/')
		k = append(k, scope...)
		if p.cfg.Seed.HashUnitB(k) < frac {
			allow++
		}
	}
	return allow
}

// maxRetryDelay (about 146 years) caps a retry's backoff step and a
// query's accumulated backoff. Unbounded doubling wraps int64 within a
// few dozen tries (one second, 40 attempts), scheduling tries in the
// past; no realistic policy reaches the cap.
const maxRetryDelay = time.Duration(1 << 62)

// backoffStep is base doubled per retry before try, saturating at
// maxRetryDelay.
func backoffStep(base time.Duration, try int) time.Duration {
	shift := uint(try - 1)
	if shift >= 62 || base > maxRetryDelay>>shift {
		return maxRetryDelay
	}
	return base << shift
}

// addDelay is a+b for non-negative a and b, saturating at
// maxRetryDelay.
func addDelay(a, b time.Duration) time.Duration {
	if a > maxRetryDelay-b {
		return maxRetryDelay
	}
	return a + b
}

// exchange performs one logical query under the retry policy: up to
// Retry.Attempts tries, exponential backoff between tries with a
// hash-derived jitter shifting the query's scheduled timestamp, each
// retry tagged with its attempt number so the fault layer draws an
// independent decision for it. An unscheduled query (PoP discovery, the
// pre-scan) counts its backoff but is not shifted. Truncated responses
// are treated as retryable failures — the re-query models the TC=1 → TCP
// fallback. key must identify the logical query (the txid content key
// plus redundancy attempt); acct may be nil (no budget, no accounting).
func (p *Prober) exchange(ctx context.Context, ex dnsnet.Exchanger, server string, q *dnswire.Message, key []byte, acct *retryAccount) (*dnswire.Message, error) {
	r := p.cfg.Retry
	if !r.Enabled() && !p.hedging(acct) {
		// Zero-value fast path: Attempts ≤ 1 means a single try, and
		// with no hedge partner there is nothing for the loop below to
		// add.
		return ex.Exchange(ctx, server, q)
	}
	// Attempts=0 (the zero value) means a single try, same as 1.
	extra := r.Attempts - 1
	if extra < 0 {
		extra = 0
	}
	clamped := false
	if acct != nil && acct.remaining >= 0 && acct.remaining < extra {
		extra = acct.remaining
		clamped = true
	}

	var (
		resp  *dnswire.Message
		err   error
		delay time.Duration
		try   int
	)
	for ; ; try++ {
		tctx := ctx
		if try > 0 {
			step := r.Backoff
			if step > 0 {
				step = backoffStep(step, try)
				// try leads the key (FNV-1a avalanches early bytes only).
				// Byte-built, identical to the former
				// fmt.Sprintf("cacheprobe/retry/%d/%s", try, key).
				var jb [240]byte
				jk := append(jb[:0], "cacheprobe/retry/"...)
				jk = strconv.AppendInt(jk, int64(try), 10)
				jk = append(jk, '/')
				jk = append(jk, key...)
				step = addDelay(step, time.Duration(p.cfg.Seed.HashUnitB(jk)*float64(r.Backoff)))
			}
			delay = addDelay(delay, step)
			if t, ok := clockx.TimeFrom(ctx); ok {
				tctx = clockx.WithTime(ctx, t.Add(delay))
			}
			tctx = faults.WithAttempt(tctx, try)
		}
		resp, err = p.tryOnce(tctx, ex, server, q, key, try, acct)
		if ok := err == nil && resp != nil && !resp.Truncated; ok || try >= extra {
			break
		}
		// The failed try's response (if any — e.g. a truncated one) is
		// dead; recycle it before the retry produces the next one.
		dnswire.ReleaseMessage(resp)
		resp = nil
	}
	if acct != nil {
		acct.spent += try
		if delay > 0 {
			acct.delays.Observe(delay.Milliseconds())
		}
		if acct.remaining > 0 {
			if acct.remaining -= try; acct.remaining < 0 {
				acct.remaining = 0
			}
		}
		ok := err == nil && resp != nil && !resp.Truncated
		if ok && try > 0 {
			acct.recovered++
		}
		if !ok && clamped {
			acct.exhausted++
		}
	}
	return resp, err
}
