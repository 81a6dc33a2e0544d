package cacheprobe

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"clientmap/internal/clockx"
	"clientmap/internal/dnswire"
	"clientmap/internal/metrics"
	"clientmap/internal/randx"
)

// countingExchanger fails the first `failures` exchanges, counts calls
// and records each try's scheduled timestamp.
type countingExchanger struct {
	calls    int
	failures int
	times    []time.Time
}

func (e *countingExchanger) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	e.calls++
	t, _ := clockx.TimeFrom(ctx)
	e.times = append(e.times, t)
	if e.calls <= e.failures {
		return nil, errors.New("synthetic failure")
	}
	return &dnswire.Message{ID: q.ID}, nil
}

// TestRetryZeroValues pins the Retry policy's zero-value edge cases:
// Attempts=0 (the zero value) means exactly one try, Backoff=0 schedules
// every retry at its predecessor's time, and a positive backoff schedules
// each retry later — without ever moving the shared clock.
func TestRetryZeroValues(t *testing.T) {
	cases := []struct {
		name       string
		retry      Retry
		hedge      bool // give the query a hedge partner
		failures   int  // exchanges that fail before one succeeds
		wantCalls  int
		wantShifts int // retries scheduled later than the try before
	}{
		{name: "zero value is a single try", retry: Retry{}, failures: 99, wantCalls: 1},
		// A hedge partner forces the retry loop (not the fast path); the
		// zero Attempts must still mean one try, like Attempts=1.
		{name: "attempts zero means one try in the loop", retry: Retry{}, hedge: true, failures: 99, wantCalls: 1},
		{name: "attempts one never retries", retry: Retry{Attempts: 1, Backoff: 10 * time.Millisecond, Timeout: time.Second}, failures: 99, wantCalls: 1},
		{name: "backoff zero never shifts a retry", retry: Retry{Attempts: 3}, failures: 99, wantCalls: 3, wantShifts: 0},
		{name: "positive backoff shifts every retry", retry: Retry{Attempts: 3, Backoff: time.Nanosecond}, failures: 99, wantCalls: 3, wantShifts: 2},
		{name: "first-try success never shifts", retry: Retry{Attempts: 3, Backoff: time.Nanosecond}, failures: 0, wantCalls: 1, wantShifts: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.retry.Validate(); err != nil {
				t.Fatalf("policy unexpectedly invalid: %v", err)
			}
			clk := clockx.NewSim(clockx.Epoch)
			ex := &countingExchanger{failures: tc.failures}
			p := &Prober{cfg: Config{Seed: randx.Seed(7), Clock: clk, Retry: tc.retry}}
			var acct *retryAccount
			if tc.hedge {
				p.hedgeAfter = time.Millisecond
				acct = &retryAccount{remaining: -1, hedge: &hedgeOption{ex: &countingExchanger{failures: 99}, server: "hedge"}}
			}
			ctx := clockx.WithTime(context.Background(), clockx.Epoch.Add(time.Hour))
			_, _ = p.exchange(ctx, ex, "test", &dnswire.Message{}, []byte("zero/test"), acct)
			if ex.calls != tc.wantCalls {
				t.Errorf("exchanges = %d, want %d", ex.calls, tc.wantCalls)
			}
			shifts := 0
			for i := 1; i < len(ex.times); i++ {
				if ex.times[i].After(ex.times[i-1]) {
					shifts++
				}
			}
			if shifts != tc.wantShifts {
				t.Errorf("retries scheduled later = %d, want %d (times %v)", shifts, tc.wantShifts, ex.times)
			}
			if !clk.Now().Equal(clockx.Epoch) {
				t.Errorf("retry loop moved the clock to %v", clk.Now())
			}
		})
	}
}

// TestRetryBackoffSaturates: doubling a one-second backoff over 40
// attempts passes the int64 range of a Duration. Against a path that
// always fails, each query's tries must still be scheduled at
// non-decreasing instants from its own, and the retry-delay histogram
// must see only non-negative delays, the last ones at the cap.
func TestRetryBackoffSaturates(t *testing.T) {
	r := Retry{Attempts: 40, Backoff: time.Second}
	if err := r.Validate(); err != nil {
		t.Fatalf("policy unexpectedly invalid: %v", err)
	}
	reg := metrics.NewRegistry()
	delays := reg.Histogram("delay_ms", []int64{-1})
	p := &Prober{cfg: Config{Seed: randx.Seed(7), Clock: clockx.NewSim(clockx.Epoch), Retry: r}}
	at := clockx.Epoch.Add(time.Hour)
	const queries = 5
	for i := 0; i < queries; i++ {
		ex := &countingExchanger{failures: r.Attempts}
		acct := &retryAccount{remaining: -1, delays: delays}
		ctx := clockx.WithTime(context.Background(), at)
		_, _ = p.exchange(ctx, ex, "test", &dnswire.Message{}, []byte("overflow/"+strconv.Itoa(i)), acct)
		if ex.calls != r.Attempts || acct.spent != r.Attempts-1 {
			t.Fatalf("query %d: %d tries, %d spent; want %d, %d", i, ex.calls, acct.spent, r.Attempts, r.Attempts-1)
		}
		if !ex.times[0].Equal(at) {
			t.Fatalf("query %d: first try at %v, want %v", i, ex.times[0], at)
		}
		for k := 1; k < len(ex.times); k++ {
			if ex.times[k].Before(ex.times[k-1]) {
				t.Fatalf("query %d: try %d scheduled at %v, before try %d at %v", i, k, ex.times[k], k-1, ex.times[k-1])
			}
		}
		if last, want := ex.times[len(ex.times)-1], at.Add(maxRetryDelay); !last.Equal(want) {
			t.Errorf("query %d: last try at %v, want the cap %v", i, last, want)
		}
	}
	led := reg.Snapshot()
	if n := led["delay_ms/le=-1"]; n != 0 {
		t.Errorf("%d negative delay observations", n)
	}
	if n := led["delay_ms/count"]; n != queries {
		t.Errorf("%d delay observations, want %d", n, queries)
	}
	if sum, want := led["delay_ms/sum"], int64(queries)*maxRetryDelay.Milliseconds(); sum != want {
		t.Errorf("delay sum %d ms, want %d (every query at the cap)", sum, want)
	}
}

// TestRetryFingerprint: the fingerprint is "off" for any single-try
// policy and canonical otherwise.
func TestRetryFingerprint(t *testing.T) {
	if got := (Retry{}).Fingerprint(); got != "off" {
		t.Errorf("zero-value fingerprint = %q, want off", got)
	}
	if got := (Retry{Attempts: 1, Timeout: time.Second}).Fingerprint(); got != "off" {
		t.Errorf("single-try fingerprint = %q, want off", got)
	}
	want := "attempts=3,timeout=2s,backoff=100ms,budget=1000"
	r, err := ParseRetry(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Fingerprint(); got != want {
		t.Errorf("fingerprint = %q, want %q", got, want)
	}
}

// TestRetryAllowance: the per-PoP budget is spread deterministically
// across a stage's tasks — base share everywhere, totals near the
// budget, unlimited (-1) when no budget is set, zero when retries are
// off.
func TestRetryAllowance(t *testing.T) {
	p := &Prober{cfg: Config{Seed: randx.Seed(7)}}
	if got := p.retryAllowance("scope", 0, 10); got != 0 {
		t.Errorf("retries off: allowance = %d, want 0", got)
	}
	p.cfg.Retry = Retry{Attempts: 3}
	if got := p.retryAllowance("scope", 0, 10); got != -1 {
		t.Errorf("no budget: allowance = %d, want -1 (unlimited)", got)
	}
	p.cfg.Retry = Retry{Attempts: 3, BudgetPerPoP: 25}
	total := 0
	for ti := 0; ti < 10; ti++ {
		a := p.retryAllowance("scope", ti, 10)
		if a < 2 || a > 3 {
			t.Errorf("task %d allowance = %d, want floor(2.5) or its ceil", ti, a)
		}
		if again := p.retryAllowance("scope", ti, 10); again != a {
			t.Errorf("task %d allowance not deterministic: %d then %d", ti, a, again)
		}
		total += a
	}
	if total < 20 || total > 30 {
		t.Errorf("allowance total = %d, want near the budget of 25", total)
	}
}

// TestRetryNegativeValuesRejected pins the validation story for negative
// knobs, and for attempts above the maximum a task slot can count:
// Validate names the offending field, and ParseRetry (the cmd flag path)
// produces a clear message for each.
func TestRetryNegativeValuesRejected(t *testing.T) {
	bad := []struct {
		name  string
		retry Retry
		spec  string
		want  string
	}{
		{"negative attempts", Retry{Attempts: -1}, "attempts=-1", "attempts"},
		{"negative timeout", Retry{Attempts: 2, Timeout: -time.Second}, "attempts=2,timeout=-1s", "timeout"},
		{"negative backoff", Retry{Attempts: 2, Backoff: -time.Second}, "attempts=2,backoff=-1s", "backoff"},
		{"negative budget", Retry{Attempts: 2, BudgetPerPoP: -5}, "attempts=2,budget=-5", "budget"},
		{"attempts above the maximum", Retry{Attempts: maxAttempts + 1}, "attempts=1025", "maximum"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.retry.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want error naming %q", err, tc.want)
			}
			if _, err := ParseRetry(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ParseRetry(%q) = %v, want error naming %q", tc.spec, err, tc.want)
			}
		})
	}
}
