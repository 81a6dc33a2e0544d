package health

import (
	"context"
	"reflect"
	"testing"
	"time"

	"clientmap/internal/clockx"
	"clientmap/internal/dnswire"
	"clientmap/internal/randx"
)

func testConfig() Config {
	return Config{
		On:         true,
		Seed:       randx.Seed(7),
		Window:     10 * time.Minute,
		ErrorRate:  0.5,
		MinSamples: 4,
		OpenAfter:  3,
		Probation:  20 * time.Minute,
		// Jitter off so transition times are exact in assertions; the
		// jitter bounds get their own test.
		ProbationJitter: 0,
		Trial:           0.2,
		HedgeAfter:      100 * time.Millisecond,
	}
}

var epoch = clockx.Epoch

// observe records n outcomes for target inside window idx.
func observe(t *Tracker, target string, idx int64, ok, fail int) {
	at := epoch.Add(time.Duration(idx)*t.cfg.Window + time.Minute)
	for i := 0; i < ok; i++ {
		t.Observe(target, at, true)
	}
	for i := 0; i < fail; i++ {
		t.Observe(target, at, false)
	}
}

// TestTrackerLifecycle replays the full breaker story: an error-rate trip,
// probation into half-open, a failed trial re-opening, and a clean trial
// closing again — each transition at an exact, configured time.
func TestTrackerLifecycle(t *testing.T) {
	tr := NewTracker(testConfig(), epoch, nil)
	// Window 0: 2 ok + 2 fail = 4 samples at 50% failure — trips at the
	// window end (10m).
	observe(tr, "v", 0, 2, 2)
	tr.Advance(epoch.Add(10 * time.Minute))
	if got := tr.State("v", epoch.Add(10*time.Minute)); got != Open {
		t.Fatalf("state after trip = %v, want open", got)
	}
	if got := tr.State("v", epoch.Add(10*time.Minute-time.Second)); got != Closed {
		t.Fatalf("state before trip = %v, want closed", got)
	}

	// Probation (20m, no jitter) ends at 30m: half-open.
	tr.Advance(epoch.Add(30 * time.Minute))
	if got := tr.State("v", epoch.Add(30*time.Minute)); got != HalfOpen {
		t.Fatalf("state after probation = %v, want half-open", got)
	}

	// A failed trial in window 3 re-opens at that window's end (40m).
	observe(tr, "v", 3, 0, 1)
	tr.Advance(epoch.Add(40 * time.Minute))
	if got := tr.State("v", epoch.Add(40*time.Minute)); got != Open {
		t.Fatalf("state after failed trial = %v, want open", got)
	}

	// Second probation ends at 60m; a clean trial window closes at 70m.
	observe(tr, "v", 6, 2, 0)
	tr.Advance(epoch.Add(70 * time.Minute))
	if got := tr.State("v", epoch.Add(70*time.Minute)); got != Closed {
		t.Fatalf("state after clean trial = %v, want closed", got)
	}

	want := []struct {
		at       time.Duration
		from, to State
	}{
		{10 * time.Minute, Closed, Open},
		{30 * time.Minute, Open, HalfOpen},
		{40 * time.Minute, HalfOpen, Open},
		{60 * time.Minute, Open, HalfOpen},
		{70 * time.Minute, HalfOpen, Closed},
	}
	trs := tr.Transitions()
	if len(trs) != len(want) {
		t.Fatalf("transitions = %+v, want %d entries", trs, len(want))
	}
	for i, w := range want {
		if !trs[i].At.Equal(epoch.Add(w.at)) || trs[i].From != w.from || trs[i].To != w.to {
			t.Errorf("transition %d = %+v, want %v→%v at +%v", i, trs[i], w.from, w.to, w.at)
		}
	}
}

// TestTrackerTripRules pins the two trip conditions separately: the
// windowed error rate needs its sample floor, and an all-failure window
// trips on the consecutive-failure threshold even below that floor.
func TestTrackerTripRules(t *testing.T) {
	// 1 ok + 2 fail: 67% failures but only 3 < MinSamples=4 samples, and
	// not all-failure — no trip.
	tr := NewTracker(testConfig(), epoch, nil)
	observe(tr, "v", 0, 1, 2)
	tr.Advance(epoch.Add(10 * time.Minute))
	if got := tr.State("v", epoch.Add(10*time.Minute)); got != Closed {
		t.Errorf("state below sample floor = %v, want closed", got)
	}

	// 0 ok + 3 fail: below the sample floor, but all-failure at
	// OpenAfter=3 — trips.
	tr = NewTracker(testConfig(), epoch, nil)
	observe(tr, "v", 0, 0, 3)
	tr.Advance(epoch.Add(10 * time.Minute))
	if got := tr.State("v", epoch.Add(10*time.Minute)); got != Open {
		t.Errorf("state on all-failure window = %v, want open", got)
	}

	// 5 ok + 1 fail: healthy — no trip, no transitions at all.
	tr = NewTracker(testConfig(), epoch, nil)
	observe(tr, "v", 0, 5, 1)
	tr.Advance(epoch.Add(10 * time.Minute))
	if trs := tr.Transitions(); len(trs) != 0 {
		t.Errorf("healthy target produced transitions: %+v", trs)
	}
}

// TestTrackerAdvanceIdempotent: advancing twice to the same point, or
// advancing past a prefix first, never changes the replayed timeline —
// the property checkpoint/resume depends on.
func TestTrackerAdvanceIdempotent(t *testing.T) {
	mk := func() *Tracker {
		tr := NewTracker(testConfig(), epoch, nil)
		observe(tr, "a", 0, 0, 5)
		observe(tr, "a", 4, 1, 0)
		observe(tr, "b", 2, 3, 3)
		return tr
	}
	one := mk()
	one.Advance(epoch.Add(70 * time.Minute))
	want := one.Transitions()

	twice := mk()
	twice.Advance(epoch.Add(70 * time.Minute))
	twice.Advance(epoch.Add(70 * time.Minute))
	if got := twice.Transitions(); !reflect.DeepEqual(got, want) {
		t.Errorf("double advance changed the timeline:\n%+v\nwant\n%+v", got, want)
	}

	staged := mk()
	staged.Advance(epoch.Add(20 * time.Minute))
	staged.Advance(epoch.Add(70 * time.Minute))
	if got := staged.Transitions(); !reflect.DeepEqual(got, want) {
		t.Errorf("staged advance changed the timeline:\n%+v\nwant\n%+v", got, want)
	}
}

// TestTrackerRestoreRoundTrip: ExportWindows → Restore into a fresh
// tracker reproduces the identical timeline, including observations in
// negative (pre-epoch) windows.
func TestTrackerRestoreRoundTrip(t *testing.T) {
	tr := NewTracker(testConfig(), epoch, nil)
	observe(tr, "a", 0, 0, 5)
	observe(tr, "b", 1, 2, 2)
	tr.Observe("c", epoch.Add(-time.Second), false) // window -1
	tr.Advance(epoch.Add(40 * time.Minute))

	windows := tr.ExportWindows()
	if got := tr.windowIndex(epoch.Add(-time.Second)); got != -1 {
		t.Errorf("pre-epoch window index = %d, want -1", got)
	}

	fresh := NewTracker(testConfig(), epoch, nil)
	fresh.Restore(windows)
	fresh.Advance(epoch.Add(40 * time.Minute))
	if got, want := fresh.Transitions(), tr.Transitions(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored timeline differs:\n%+v\nwant\n%+v", got, want)
	}
	if got := fresh.ExportWindows(); !reflect.DeepEqual(got, windows) {
		t.Errorf("re-export differs:\n%+v\nwant\n%+v", got, windows)
	}
}

// TestTrackerProbationJitter: with jitter on, the open → half-open delay
// stays within [Probation, Probation·(1+jitter)] and is reproduced
// exactly by an identically-seeded tracker.
func TestTrackerProbationJitter(t *testing.T) {
	cfg := testConfig()
	cfg.ProbationJitter = 0.5
	halfOpenAt := func() time.Time {
		tr := NewTracker(cfg, epoch, nil)
		observe(tr, "v", 0, 0, 5)
		tr.Advance(epoch.Add(2 * time.Hour))
		for _, x := range tr.Transitions() {
			if x.To == HalfOpen {
				return x.At
			}
		}
		t.Fatal("no half-open transition replayed")
		return time.Time{}
	}
	got := halfOpenAt()
	tripAt := epoch.Add(10 * time.Minute)
	lo, hi := tripAt.Add(cfg.Probation), tripAt.Add(cfg.Probation+cfg.Probation/2)
	if got.Before(lo) || got.After(hi) {
		t.Errorf("jittered probation end %v outside [%v, %v]", got, lo, hi)
	}
	if again := halfOpenAt(); !again.Equal(got) {
		t.Errorf("probation jitter not reproducible: %v then %v", got, again)
	}
}

// TestTrackerNilSafe: a nil tracker is the disabled layer — every method
// is a no-op and every state reads closed.
func TestTrackerNilSafe(t *testing.T) {
	var tr *Tracker
	tr.Observe("v", epoch, false)
	tr.Advance(epoch)
	tr.Restore(nil)
	if got := tr.State("v", epoch); got != Closed {
		t.Errorf("nil tracker state = %v, want closed", got)
	}
}

// plannerTracker builds a tracker where each target in open is Open at
// the 20-minute plan time and each in halfOpen is HalfOpen there, using
// all-failure windows and probation arithmetic.
func plannerTracker(t *testing.T, cfg Config, open, halfOpen []string) *Tracker {
	t.Helper()
	tr := NewTracker(cfg, epoch, nil)
	for _, target := range open {
		// Trip at 10m; probation 20m keeps it open through 30m exclusive.
		observe(tr, target, 0, 0, 5)
	}
	for _, target := range halfOpen {
		// Trip at -20m (window -3); probation ends at the epoch, so the
		// target is half-open from the epoch on.
		tr.Observe(target, epoch.Add(-25*time.Minute), false)
		tr.Observe(target, epoch.Add(-25*time.Minute), false)
		tr.Observe(target, epoch.Add(-25*time.Minute), false)
	}
	tr.Advance(epoch.Add(20 * time.Minute))
	planAt := epoch.Add(20 * time.Minute)
	for _, target := range open {
		if got := tr.State(target, planAt); got != Open {
			t.Fatalf("setup: %s = %v, want open", target, got)
		}
	}
	for _, target := range halfOpen {
		if got := tr.State(target, planAt); got != HalfOpen {
			t.Fatalf("setup: %s = %v, want half-open", target, got)
		}
	}
	return tr
}

// TestPlannerRoutes covers the route preference ladder: primary when
// closed, trial admission when half-open, first non-open alternate, first
// *closed* fallback (half-open strangers excluded), else lost.
func TestPlannerRoutes(t *testing.T) {
	planAt := epoch.Add(20 * time.Minute)
	task := Task{Key: "0/1/pop", Primary: "p", Alternates: []string{"a1", "a2"}, Fallbacks: []string{"f1", "f2"}}

	cfg := testConfig()
	pl := &Planner{Tracker: plannerTracker(t, cfg, nil, nil)}
	if got := pl.Route(planAt, task); got.Kind != RoutePrimary {
		t.Errorf("closed primary: route %+v, want primary", got)
	}

	pl = &Planner{Tracker: plannerTracker(t, cfg, []string{"p", "a1"}, nil)}
	if got := pl.Route(planAt, task); got.Kind != RouteAlternate || got.Index != 1 {
		t.Errorf("open primary and a1: route %+v, want alternate[1]", got)
	}

	pl = &Planner{Tracker: plannerTracker(t, cfg, []string{"p", "a1", "a2"}, []string{"f1"})}
	if got := pl.Route(planAt, task); got.Kind != RouteFallback || got.Index != 1 {
		t.Errorf("half-open f1: route %+v, want fallback[1] (trial budget is not for strangers)", got)
	}

	pl = &Planner{Tracker: plannerTracker(t, cfg, []string{"p", "a1", "a2", "f2"}, []string{"f1"})}
	if got := pl.Route(planAt, task); got.Kind != RouteLost {
		t.Errorf("nothing healthy: route %+v, want lost", got)
	}

	// Trial admission is the configured fraction of a half-open primary's
	// tasks, decided per task key.
	always, never := cfg, cfg
	always.Trial, never.Trial = 1, 0
	pl = &Planner{Tracker: plannerTracker(t, always, nil, []string{"p"})}
	if got := pl.Route(planAt, task); got.Kind != RouteTrial {
		t.Errorf("trial=1 half-open primary: route %+v, want trial", got)
	}
	pl = &Planner{Tracker: plannerTracker(t, never, nil, []string{"p"})}
	if got := pl.Route(planAt, task); got.Kind != RouteAlternate || got.Index != 0 {
		t.Errorf("trial=0 half-open primary: route %+v, want alternate[0]", got)
	}
}

// stubExchanger returns a canned response and records calls.
type stubExchanger struct {
	calls int
	resp  *dnswire.Message
	err   error
}

func (s *stubExchanger) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	s.calls++
	return s.resp, s.err
}

// TestWrapBreaker: an open breaker fast-fails without touching the inner
// exchanger or the window sums; otherwise outcomes pass through and are
// observed, with a nil-response/nil-error drop counted as a failure.
func TestWrapBreaker(t *testing.T) {
	tr := plannerTracker(t, testConfig(), []string{"v"}, nil)
	inner := &stubExchanger{resp: &dnswire.Message{}}
	ex := Wrap(tr, "v", clockx.NewSim(epoch), inner)

	openCtx := clockx.WithTime(context.Background(), epoch.Add(20*time.Minute))
	if _, err := ex.Exchange(openCtx, "srv", &dnswire.Message{}); err != ErrOpen {
		t.Fatalf("open breaker: err = %v, want ErrOpen", err)
	}
	if inner.calls != 0 {
		t.Fatalf("open breaker reached the inner exchanger %d times", inner.calls)
	}

	// Well before the trip the frozen timeline reads closed: the exchange
	// passes through and lands in the window sums as a success.
	closedCtx := clockx.WithTime(context.Background(), epoch.Add(time.Minute))
	if _, err := ex.Exchange(closedCtx, "srv", &dnswire.Message{}); err != nil {
		t.Fatalf("closed breaker: err = %v", err)
	}
	if inner.calls != 1 {
		t.Fatalf("closed breaker calls = %d, want 1", inner.calls)
	}

	// A dropped packet (nil, nil) counts as a failure.
	inner.resp = nil
	if _, err := ex.Exchange(closedCtx, "srv", &dnswire.Message{}); err != nil {
		t.Fatalf("dropped packet: err = %v", err)
	}
	sums := tr.ExportWindows()["v"]
	var ok, fail int64
	for _, s := range sums {
		if s.Index == 0 {
			ok, fail = s.OK, s.Fail
		}
	}
	// Window 0 held 5 setup failures; the two exchanges add 1 ok + 1 fail.
	if ok != 1 || fail != 6 {
		t.Errorf("window 0 sums after wrap = %d ok / %d fail, want 1/6", ok, fail)
	}

	if got := Wrap(nil, "v", nil, inner); got != inner {
		t.Error("Wrap with a nil tracker must return the inner exchanger unchanged")
	}
}

// TestLedgerAccounting covers the ledger arithmetic: campaign-level
// never-probed loss, failover tallies and state durations from a
// transition timeline.
func TestLedgerAccounting(t *testing.T) {
	var l Ledger
	if got := l.EstimatedLossPP(); got != 0 {
		t.Errorf("empty ledger EstimatedLossPP = %v, want 0", got)
	}
	l.FailOver("fra")
	l.FailOver("fra")
	l.FailOver("ams")
	if l.FailedOver["fra"] != 2 || l.FailedOver["ams"] != 1 {
		t.Errorf("failover tallies = %+v", l.FailedOver)
	}

	// Two passes of 10 tasks; task 1 lost in both (a true coverage hole),
	// task 2 lost once (probed in the other pass — still covered).
	l.Coverage = []PassCoverage{{Pass: 0, Assigned: 10, Lost: 2}, {Pass: 1, Assigned: 10, Lost: 1}}
	l.LoseTask("fra", 1)
	l.LoseTask("fra", 1)
	l.LoseTask("fra", 2)
	if got := l.EstimatedLossPP(); got != 10 {
		t.Errorf("EstimatedLossPP = %v, want 10 (1 of 10 tasks never probed)", got)
	}

	from := epoch
	to := epoch.Add(time.Hour)
	l.Transitions = []Transition{
		{Target: "v", At: from.Add(10 * time.Minute), From: Closed, To: Open},
		{Target: "v", At: from.Add(30 * time.Minute), From: Open, To: HalfOpen},
		{Target: "v", At: from.Add(40 * time.Minute), From: HalfOpen, To: Closed},
	}
	durs := l.StateDurations(from, to)
	want := [3]time.Duration{}
	want[Closed] = 30 * time.Minute
	want[Open] = 20 * time.Minute
	want[HalfOpen] = 10 * time.Minute
	if got := durs["v"]; got != want {
		t.Errorf("StateDurations = %v, want %v", got, want)
	}
	if _, ok := durs["other"]; ok {
		t.Error("target with no transitions must be omitted")
	}
}

// TestStateString covers the display names, including the impossible
// value's fallback.
func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Closed: "closed", Open: "open", HalfOpen: "half-open", State(9): "state(9)"} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}
