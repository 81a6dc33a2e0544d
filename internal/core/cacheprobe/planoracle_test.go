package cacheprobe

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"clientmap/internal/geo"
	"clientmap/internal/netx"
)

// This file keeps the plan build as it was before the scope-geography
// table — every (PoP, domain, scope) triple geolocating the scope's
// sampled /24s afresh — as the oracle BuildAssignments and the failover
// planner's candidate scan are held to (TestAssignmentsMatchOracle).

// scopeAssigned reports whether any of the scope's /24s is possibly within
// the PoP's service radius per the geolocation database. Large scopes are
// sampled at up to 8 of their /24s.
func (p *Prober) scopeAssigned(scope netx.Prefix, popCoord geo.Coord, radiusKm float64) bool {
	n := scope.NumSlash24s()
	stride := 1
	if n > 8 {
		stride = n / 8
	}
	first := uint32(scope.FirstSlash24())
	for i := 0; i < n; i += stride {
		if loc, ok := p.cfg.GeoDB.Lookup(netx.Slash24(first + uint32(i))); ok {
			if loc.PossiblyWithin(popCoord, radiusKm) {
				return true
			}
		}
	}
	return false
}

// oracleScopeCoord locates a representative point for a scope: the first
// of up to 8 sampled /24s the geo database can place (the same sampling
// stride scopeAssigned uses).
func (p *Prober) oracleScopeCoord(scope netx.Prefix) (geo.Coord, bool) {
	n := scope.NumSlash24s()
	stride := 1
	if n > 8 {
		stride = n / 8
	}
	first := uint32(scope.FirstSlash24())
	for i := 0; i < n; i += stride {
		if loc, ok := p.cfg.GeoDB.Lookup(netx.Slash24(first + uint32(i))); ok {
			return loc.Coord, true
		}
	}
	return geo.Coord{}, false
}

// oracleTasks is every PoP's task list, sequentially, one scopeAssigned
// call per (PoP, domain, scope).
func (p *Prober) oracleTasks(pops map[string]*Vantage, popCoords map[string]geo.Coord, camp *Campaign) [][]probeTask {
	popNames := sortedPoPs(pops)
	out := make([][]probeTask, len(popNames))
	for pi, pop := range popNames {
		coord, ok := popCoords[pop]
		if !ok {
			coord = pops[pop].Coord
		}
		radius := MaxServiceRadiusKm
		if cal, ok := camp.PoPs[pop]; ok {
			radius = cal.RadiusKm
		}
		for di, d := range p.cfg.Domains {
			for _, scope := range camp.ScopesByDomain[d.Name] {
				if p.scopeAssigned(scope, coord, radius) {
					out[pi] = append(out[pi], probeTask{scope: scope, domain: uint32(di)})
				}
			}
		}
	}
	return out
}

// oracleFallbacks is the failover candidate scan over scopeAssigned and
// oracleScopeCoord: the other PoPs whose radius possibly covers the
// scope, nearest first.
func (p *Prober) oracleFallbacks(pop string, scope netx.Prefix, pops map[string]*Vantage, asg *Assignments, camp *Campaign) (fbPops []string, dists []float64) {
	loc, ok := p.oracleScopeCoord(scope)
	if !ok {
		return nil, nil
	}
	type cand struct {
		pop  string
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
		if p.scopeAssigned(scope, coord, radius) {
			cands = append(cands, cand{pop: other, dist: geo.DistanceKm(coord, loc)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].pop < cands[j].pop
	})
	for _, c := range cands {
		fbPops = append(fbPops, c.pop)
		dists = append(dists, c.dist)
	}
	return fbPops, dists
}

// PlanOracleDiff holds asg, which BuildAssignments built from these
// inputs, to the oracle: the PoP order, every task list task for task,
// the assignment sizes recorded on the campaign, and the failover
// candidate list (PoPs, vantages, breaker targets and distances) of
// every every-th task of each PoP. It returns the first difference, or
// "" when there is none.
func (p *Prober) PlanOracleDiff(pops map[string]*Vantage, popCoords map[string]geo.Coord, camp *Campaign, asg *Assignments, every int) string {
	want := p.oracleTasks(pops, popCoords, camp)
	if !slices.Equal(asg.popNames, sortedPoPs(pops)) {
		return fmt.Sprintf("PoPs %v, want %v", asg.popNames, sortedPoPs(pops))
	}
	for pi, pop := range asg.popNames {
		got := asg.tasks[pi]
		if len(got) != len(want[pi]) {
			return fmt.Sprintf("PoP %s: %d tasks, oracle %d", pop, len(got), len(want[pi]))
		}
		for ti := range got {
			if got[ti] != want[pi][ti] {
				return fmt.Sprintf("PoP %s task %d: %+v, oracle %+v", pop, ti, got[ti], want[pi][ti])
			}
		}
		if cal, ok := camp.PoPs[pop]; ok && cal.Assigned != len(want[pi]) {
			return fmt.Sprintf("PoP %s: Assigned %d, oracle %d", pop, cal.Assigned, len(want[pi]))
		}
		for ti := 0; ti < len(got); ti += every {
			scope := got[ti].scope
			targets, fbPops, vs, dists := p.fallbackCandidates(pop, scope, pops, asg, camp, time.Time{})
			wPops, wDists := p.oracleFallbacks(pop, scope, pops, asg, camp)
			if !slices.Equal(fbPops, wPops) || !slices.Equal(dists, wDists) {
				return fmt.Sprintf("PoP %s scope %v: fallbacks %v at %v km, oracle %v at %v km", pop, scope, fbPops, dists, wPops, wDists)
			}
			for i, fb := range fbPops {
				if vs[i] != pops[fb] || targets[i] != pops[fb].Name {
					return fmt.Sprintf("PoP %s scope %v: fallback %s routed to %s", pop, scope, fb, targets[i])
				}
			}
		}
	}
	return ""
}

// DistinctScopes returns how many distinct scopes the plan's
// scope-geography table holds.
func (a *Assignments) DistinctScopes() int { return len(a.geo.scopes) }
