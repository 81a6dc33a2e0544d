package stream

import (
	"fmt"
	"time"

	"clientmap/internal/churn"
	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
	"clientmap/internal/traffic"
	"clientmap/internal/world"
)

// Config parameterizes a streaming run.
type Config struct {
	// Seed is the campaign seed (shared with world/scheduler/DNS keys).
	Seed randx.Seed
	// Scale names the world scale (metadata only at this layer).
	Scale string
	// Hours is the simulated stream length.
	Hours int
	// EmitEvery emits the rolling serving artifact every N hours.
	EmitEvery int
	// Churn drives the world's evolution while the stream runs.
	Churn churn.Config
}

// Streaming parameters.
const (
	// DefaultTTLHours is the evidence TTL: a hit keeps its scope live for
	// this many hours after the hour it landed in.
	DefaultTTLHours = 6
	// DefaultBudgetFrac is the fraction of each PoP's task list probed
	// per hour.
	DefaultBudgetFrac = 0.35
	// DefaultFlipWindow is how many hours a flipped task stays in the top
	// scheduler class.
	DefaultFlipWindow = 2
	// DefaultDecayMargin is how many hours before TTL expiry a live task
	// enters the decaying class.
	DefaultDecayMargin = 2
	// DefaultEmitEvery is Config.EmitEvery's value when unset.
	DefaultEmitEvery = 1
)

// WithDefaults fills an unset EmitEvery.
func (c Config) WithDefaults() Config {
	if c.EmitEvery <= 0 {
		c.EmitEvery = DefaultEmitEvery
	}
	return c
}

// Fingerprint summarizes everything that changes the stream's outputs,
// for pipeline stage fingerprints.
func (c Config) Fingerprint() string {
	return fmt.Sprintf("hours=%d ttl=%d budget=%g flip=%d margin=%d emit=%d churn=%s",
		c.Hours, DefaultTTLHours, DefaultBudgetFrac, DefaultFlipWindow, DefaultDecayMargin, c.EmitEvery,
		c.Churn.Fingerprint())
}

// Env is the in-memory simulation the stream drives. It is rebuilt from
// (seed, scale) on every run — live or resumed — and mutated identically
// hour by hour, which is what makes checkpoint replay exact.
type Env struct {
	World *world.World
	Model *traffic.Model
	Asg   *cacheprobe.Assignments
	// Epoch is the sim instant of hour 0.
	Epoch time.Time
	// Invalidate drops what an hour's churn made stale in memos derived
	// from the world — the Google DNS lazy fill's lines — given the
	// hour's merged churn.Effect. It runs once per hour with events that
	// changed something, after all of them are applied; nil when the
	// serving stack keeps no such memo.
	Invalidate func(churn.Effect)
}

// HourStart returns the sim instant hour h begins at.
func (e *Env) HourStart(h int) time.Time { return e.Epoch.Add(time.Duration(h) * time.Hour) }

// HourPlan is the deterministic plan for one hour, computed by BeginHour
// before any probing: the churn events applied, and the scheduler's task
// selection as a subset assignment ready for the probe engine.
type HourPlan struct {
	Hour   int
	Start  time.Time
	Events []churn.Event
	// Sel holds, per PoP index, the sorted task indices selected for this
	// hour (empty for withdrawn PoPs).
	Sel       [][]int
	Scheduled int
	Sub       *cacheprobe.Assignments
}

// HourDelta is everything one hour observed — the checkpoint payload a
// resumed stream replays instead of re-probing.
type HourDelta struct {
	Hour int
	// Events are the churn events the hour applied; restore verifies them
	// against the re-derived plan.
	Events []churn.Event
	// Pass is the hour's probe delta (its Base field chains checkpoints).
	Pass *cacheprobe.PassDelta
	// DNS lists the resolver /24s the DNS-logs channel observed this
	// hour, sorted ascending.
	DNS []netx.Slash24
}

// HourView is the per-hour rolling summary the streaming report and the
// determinism suite pin byte-for-byte.
type HourView struct {
	Hour          int
	Events        int
	Scheduled     int
	Probes        int
	Hits          int
	FreshScopes   int
	DecayedScopes int
	ActiveScopes  int
	DNSActive     int
	Withdrawn     int
	// MapHash is the rolling artifact's payload hash on emit hours, ""
	// otherwise.
	MapHash string
}

// EventOutcome tracks one world event from application to the first hour
// the rolling map reflects it. The gap is the coverage lag the streaming
// report quantifies.
type EventOutcome struct {
	Event churn.Event
	// ReflectedHour is the first hour the map reflected the event, or -1
	// while still pending at stream end.
	ReflectedHour int
}

// Lag returns the coverage lag in sim hours, or -1 if never reflected.
func (o EventOutcome) Lag() int {
	if o.ReflectedHour < 0 {
		return -1
	}
	return o.ReflectedHour - o.Event.Hour
}

// tracked reports whether an event kind gets a coverage-lag row. Drift
// and diurnal events are ambient (they shift rates, not ground truth
// activity membership), so they are counted but not lag-tracked.
func tracked(k churn.Kind) bool {
	switch k {
	case churn.KindRealloc, churn.KindPoPWithdraw, churn.KindPoPAnnounce, churn.KindChromiumOff:
		return true
	}
	return false
}

// State is the stream's full scheduler + evidence state. It advances one
// hour at a time through BeginHour/FinishHour; both the live path and
// checkpoint replay drive it through exactly the same two calls, so a
// resumed stream's state is bit-identical to the uninterrupted one.
type State struct {
	Cfg  Config
	Plan []churn.Event
	// PoPs mirrors the assignment's PoP slots; Tasks holds scheduler
	// memory per (PoP, task).
	PoPs      []string
	Tasks     [][]TaskState
	Ledger    *Ledger
	Withdrawn map[string]bool
	Views     []HourView
	Outcomes  []EventOutcome

	// Hour is the next hour to begin.
	Hour int

	// DriftTicks / DiurnalTicks count ambient events applied.
	DriftTicks   int
	DiurnalTicks int

	// ChromiumOffHour is the hour the Chromium-deprecation event fired
	// (-1 before/without it); ChromiumBase is the live DNS-channel /24
	// count at the end of that hour — the baseline the coverage-loss
	// percentage is computed against.
	ChromiumOffHour int
	ChromiumBase    int
}

// NewState builds hour-0 state from a config, a churn plan, and the full
// campaign assignment.
func NewState(cfg Config, plan []churn.Event, asg *cacheprobe.Assignments) *State {
	cfg = cfg.WithDefaults()
	s := &State{
		Cfg:             cfg,
		Plan:            plan,
		Ledger:          NewLedger(DefaultTTLHours),
		Withdrawn:       make(map[string]bool),
		ChromiumOffHour: -1,
	}
	s.PoPs = make([]string, asg.NumPoPs())
	s.Tasks = make([][]TaskState, asg.NumPoPs())
	for pi := 0; pi < asg.NumPoPs(); pi++ {
		s.PoPs[pi] = asg.PoPName(pi)
		ts := make([]TaskState, asg.NumTasks(pi))
		for ti := range ts {
			ts[ti] = TaskState{LastProbe: -1, LastHit: -1, FlipHour: -1}
		}
		s.Tasks[pi] = ts
	}
	for _, ev := range plan {
		if tracked(ev.Kind) {
			s.Outcomes = append(s.Outcomes, EventOutcome{Event: ev, ReflectedHour: -1})
		}
	}
	return s
}

// BeginHour applies the hour's churn events to the live world, updates
// the withdrawn-PoP set, hands the events' merged effect to
// env.Invalidate (so a realloc drops only the rate lines over its /24,
// and PoP windows or the Chromium deprecation drop nothing), and
// computes the scheduler's selection from pre-hour state. It must be
// called exactly once per hour, in order, on both the live and the
// replay path.
func (s *State) BeginHour(env *Env) *HourPlan {
	h := s.Hour
	evs := churn.EventsAt(s.Plan, h)
	var eff churn.Effect
	for _, ev := range evs {
		eff.Merge(s.Cfg.Churn.Apply(ev, env.World))
		switch ev.Kind {
		case churn.KindPoPWithdraw:
			s.Withdrawn[ev.PoP] = true
		case churn.KindPoPAnnounce:
			delete(s.Withdrawn, ev.PoP)
		case churn.KindChromiumOff:
			s.ChromiumOffHour = h
		case churn.KindDrift:
			s.DriftTicks++
		case churn.KindDiurnal:
			s.DiurnalTicks++
		}
	}
	if !eff.Empty() && env.Invalidate != nil {
		env.Invalidate(eff)
	}
	sel, scheduled := s.schedule(int32(h))
	return &HourPlan{
		Hour:      h,
		Start:     env.HourStart(h),
		Events:    evs,
		Sel:       sel,
		Scheduled: scheduled,
		Sub:       env.Asg.Subset(sel),
	}
}

// FinishHour folds the hour's observations into the ledger, updates
// scheduler memory (flip detection), decays evidence, runs coverage-lag
// detection, and appends the hour's view. On emit hours it also returns
// the rolling serving artifact (nil otherwise). After FinishHour the
// state is ready for the next BeginHour.
func (s *State) FinishHour(hp *HourPlan, d *HourDelta, env *Env) (*HourView, *ClientMapOut) {
	h := hp.Hour
	h32 := int32(h)

	// Mark per-task outcomes for everything scheduled this hour. A task
	// hit iff the delta carries a matching (PoP, domain, query scope) —
	// health failover is off in stream mode, so the hit's PoP is the
	// probing PoP.
	type tkey struct {
		pop, domain string
		scope       netx.Prefix
	}
	hits := make(map[tkey]bool, len(d.Pass.Hits))
	for i := range d.Pass.Hits {
		dh := &d.Pass.Hits[i]
		hits[tkey{dh.PoP, dh.Domain, dh.QueryScope}] = true
	}
	fresh := 0
	for pi, tis := range hp.Sel {
		pop := s.PoPs[pi]
		for _, ti := range tis {
			domain, scope := env.Asg.TaskAt(pi, ti)
			hit := hits[tkey{pop, domain, scope}]
			ts := &s.Tasks[pi][ti]
			if ts.LastProbe >= 0 && ts.PrevHit != hit {
				ts.FlipHour = h32
			}
			ts.LastProbe, ts.PrevHit = h32, hit
			if hit {
				ts.LastHit = h32
			}
		}
	}

	// Fold evidence: cache hits by response scope, then the DNS channel.
	for i := range d.Pass.Hits {
		dh := &d.Pass.Hits[i]
		if s.Ledger.AddHit(dh.Domain, dh.RespScope, dh.PoP, h32) {
			fresh++
		}
	}
	for _, p := range d.DNS {
		s.Ledger.AddDNS(p, h32)
	}

	// Decay, then capture the Chromium baseline at its event hour: the
	// channel has already gone quiet (the share flipped to zero before
	// this hour's tick), so the baseline is the still-live evidence the
	// map is about to lose.
	decayed := s.Ledger.DecayTo(h32)
	if s.ChromiumOffHour == h {
		s.ChromiumBase = s.Ledger.DNSActive()
	}
	s.detect(h)

	view := HourView{
		Hour:          h,
		Events:        len(hp.Events),
		Scheduled:     hp.Scheduled,
		Probes:        d.Pass.ProbesSent,
		Hits:          len(d.Pass.Hits),
		FreshScopes:   fresh,
		DecayedScopes: decayed,
		ActiveScopes:  s.Ledger.ActiveScopes(),
		DNSActive:     s.Ledger.DNSActive(),
		Withdrawn:     len(s.Withdrawn),
	}

	var out *ClientMapOut
	if (h+1)%s.Cfg.EmitEvery == 0 || h == s.Cfg.Hours-1 {
		out = s.buildMap(env, h)
		view.MapHash = out.Hash
	}
	s.Views = append(s.Views, view)
	s.Hour = h + 1
	return &s.Views[len(s.Views)-1], out
}

// detect runs the coverage-lag predicates over still-pending tracked
// events at the end of hour h.
func (s *State) detect(h int) {
	for i := range s.Outcomes {
		o := &s.Outcomes[i]
		if o.ReflectedHour >= 0 || o.Event.Hour > h {
			continue
		}
		ev := o.Event
		reflected := false
		switch ev.Kind {
		case churn.KindRealloc:
			last, covered := s.Ledger.CoveredLive(ev.Prefix.Addr())
			if ev.NewUsers > 0 {
				// Activation: the map reflects it once post-event evidence
				// covers the prefix.
				reflected = covered && int(last) >= ev.Hour
			} else {
				// Went dark: reflected once no live scope covers it.
				reflected = !covered
			}
		case churn.KindPoPWithdraw:
			reflected = !s.Ledger.PoPLive(ev.PoP)
		case churn.KindPoPAnnounce:
			last, live := s.Ledger.PoPLastHit(ev.PoP)
			reflected = live && int(last) >= ev.Hour
		case churn.KindChromiumOff:
			reflected = s.Ledger.DNSActive() <= s.ChromiumBase/2
		}
		if reflected {
			o.ReflectedHour = h
		}
	}
}
