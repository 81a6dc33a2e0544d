package cacheprobe

import (
	"fmt"
	"sort"
	"time"

	"clientmap/internal/geo"
	"clientmap/internal/health"
	"clientmap/internal/netx"
)

// This file is the prober's side of the degradation layer: keeping the
// breaker tracker in lockstep with the checkpointed campaign, and
// turning frozen breaker states into a per-pass failover plan.
//
// The plan is computed sequentially at the pass start from the tracker's
// frozen timeline, so it is a pure function of checkpointed state — the
// same for any worker count and for a resumed run. Workers then only
// *read* their task's route.

// healthSync seeds the tracker from the checkpointed campaign and
// freezes its timeline at the stage's scheduled time. Stages call it
// before probing: the campaign artifact — not the in-process tracker —
// is the authoritative breaker state, so a resumed run (whose re-run
// setup stage re-observed discovery traffic) replays from exactly the
// state an uninterrupted run would hold.
func (p *Prober) healthSync(camp *Campaign, at time.Time) {
	if p.cfg.Health == nil {
		return
	}
	p.cfg.Health.Restore(camp.Health.Windows)
	p.cfg.Health.Advance(at)
}

// healthExport folds the tracker's state back into the campaign at a
// stage end: the canonical window sums and the transition timeline.
// Newly replayed transitions (the tail beyond what the campaign already
// carried — replay is prefix-monotone) are mirrored into the metrics
// registry, on the sequential path like every other folded counter.
func (p *Prober) healthExport(camp *Campaign) {
	t := p.cfg.Health
	if t == nil {
		return
	}
	prev := len(camp.Health.Transitions)
	camp.Health.Windows = t.ExportWindows()
	camp.Health.Transitions = t.Transitions()
	p.countTransitions(camp.Health.Transitions[min(prev, len(camp.Health.Transitions)):])
}

// countTransitions mirrors newly replayed breaker transitions into the
// metrics registry.
func (p *Prober) countTransitions(trs []health.Transition) {
	for _, tr := range trs {
		switch tr.To {
		case health.Open:
			p.m.breakerOpened.Inc()
		case health.HalfOpen:
			p.m.breakerHalfOpened.Inc()
		case health.Closed:
			p.m.breakerClosed.Inc()
		}
	}
}

// taskRoute is the plan's decision for one task: where it probes, which
// PoP its hits are attributed to, and how far a fallback sent it.
type taskRoute struct {
	kind   health.RouteKind
	v      *Vantage // nil when the task is lost for this pass
	pop    string
	distKm float64
}

// popPlan is one PoP's routing for a pass. A nil routes slice is the
// common case: breaker closed, every task probes the primary vantage.
type popPlan struct {
	primary *Vantage
	pop     string
	// hedge is the secondary path for primary/trial probes: the first
	// healthy alternate vantage reaching the same PoP, or the primary
	// itself (against another cache pool) when the PoP has none.
	hedge  hedgeOption
	routes []taskRoute
}

// route returns the plan's decision for task ti.
func (pl *popPlan) route(ti int) taskRoute {
	if pl.routes == nil {
		return taskRoute{kind: health.RoutePrimary, v: pl.primary, pop: pl.pop}
	}
	return pl.routes[ti]
}

// hedgeFor picks the hedge path for a routed probe: primary and trial
// probes hedge to the PoP's healthy alternate; re-routed probes hedge
// against another cache pool of wherever they were sent.
func (pl *popPlan) hedgeFor(r taskRoute) hedgeOption {
	switch r.kind {
	case health.RoutePrimary, health.RouteTrial:
		return pl.hedge
	default:
		return hedgeOption{ex: r.v.Exchanger, server: r.v.Server, samePath: true}
	}
}

// planPass computes every PoP's routing for one pass from the frozen
// breaker timeline. Returns nil when the degradation layer is off.
func (p *Prober) planPass(pops map[string]*Vantage, asg *Assignments, camp *Campaign, pass int, at time.Time) []popPlan {
	t := p.cfg.Health
	if t == nil {
		return nil
	}
	plans := make([]popPlan, len(asg.popNames))
	pl := &health.Planner{Tracker: t}
	for pi, pop := range asg.popNames {
		plans[pi] = p.planPoP(pl, pop, pops, asg, camp, pass, at, asg.tasks[pi])
	}
	return plans
}

// planPoP routes one PoP's tasks for a pass.
func (p *Prober) planPoP(pl *health.Planner, pop string, pops map[string]*Vantage, asg *Assignments, camp *Campaign, pass int, at time.Time, tasks []probeTask) popPlan {
	t := p.cfg.Health
	primary := pops[pop]
	plan := popPlan{primary: primary, pop: pop}

	alts := p.alts[pop]
	altNames := make([]string, len(alts))
	var firstHealthy *Vantage
	for i, a := range alts {
		altNames[i] = a.Name
		if firstHealthy == nil && t.State(a.Name, at) != health.Open {
			firstHealthy = a
		}
	}
	if firstHealthy != nil {
		plan.hedge = hedgeOption{ex: firstHealthy.Exchanger, server: firstHealthy.Server}
	} else {
		plan.hedge = hedgeOption{ex: primary.Exchanger, server: primary.Server, samePath: true}
	}

	if t.State(primary.Name, at) == health.Closed {
		return plan // routes nil: everything probes the primary
	}

	plan.routes = make([]taskRoute, len(tasks))
	for ti, tk := range tasks {
		task := health.Task{
			// Variable fields lead the key (FNV-1a avalanches early
			// bytes), and the pass is included so trial sets rotate.
			Key:        fmt.Sprintf("%d/%d/%s", pass, ti, pop),
			Primary:    primary.Name,
			Alternates: altNames,
		}
		r := pl.Route(at, task)
		var fbVantages []*Vantage
		var fbPops []string
		var fbDists []float64
		if r.Kind == health.RouteLost {
			// Only now pay for the cross-PoP candidate scan: most tasks
			// never reach it.
			task.Fallbacks, fbPops, fbVantages, fbDists = p.fallbackCandidates(pop, tk.scope, pops, asg, camp, at)
			if len(task.Fallbacks) > 0 {
				r = pl.Route(at, task)
			}
		}
		switch r.Kind {
		case health.RouteTrial, health.RoutePrimary:
			plan.routes[ti] = taskRoute{kind: r.Kind, v: primary, pop: pop}
		case health.RouteAlternate:
			plan.routes[ti] = taskRoute{kind: r.Kind, v: alts[r.Index], pop: pop}
		case health.RouteFallback:
			plan.routes[ti] = taskRoute{kind: r.Kind, v: fbVantages[r.Index], pop: fbPops[r.Index], distKm: fbDists[r.Index]}
			p.m.failoverDist.Observe(int64(fbDists[r.Index]))
		case health.RouteLost:
			plan.routes[ti] = taskRoute{kind: r.Kind, pop: pop}
		}
	}
	return plan
}

// fallbackCandidates lists the other PoPs whose calibrated service
// radius possibly covers the scope, nearest first — the planner picks
// the first healthy one. Returns the breaker target names (the PoPs'
// primary vantage names) alongside the PoPs themselves and distances.
func (p *Prober) fallbackCandidates(pop string, scope netx.Prefix, pops map[string]*Vantage, asg *Assignments, camp *Campaign, at time.Time) (targets, fbPops []string, vs []*Vantage, dists []float64) {
	si, ok := asg.geo.index(scope)
	if !ok {
		return nil, nil, nil, nil
	}
	loc, ok := asg.geo.coord(si)
	if !ok {
		return nil, nil, nil, nil
	}
	type cand struct {
		pop  string
		v    *Vantage
		dist float64
	}
	var cands []cand
	for _, other := range asg.popNames {
		if other == pop {
			continue
		}
		coord := asg.coord(other, pops)
		radius := MaxServiceRadiusKm
		if cal, ok := camp.PoPs[other]; ok {
			radius = cal.RadiusKm
		}
		if !asg.geo.within(si, coord, radius) {
			continue
		}
		cands = append(cands, cand{pop: other, v: pops[other], dist: geo.DistanceKm(coord, loc)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].pop < cands[j].pop
	})
	for _, c := range cands {
		targets = append(targets, c.v.Name)
		fbPops = append(fbPops, c.pop)
		vs = append(vs, c.v)
		dists = append(dists, c.dist)
	}
	return targets, fbPops, vs, dists
}
