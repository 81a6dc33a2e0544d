package cacheprobe

import "clientmap/internal/netx"

// Read-only accessors and the subset constructor over a probe plan.
// Fixed-window campaigns probe the full Assignments every pass; the
// streaming mode (internal/stream) instead re-probes an adaptive
// per-hour selection, which it expresses as a Subset of the calibrated
// plan. The subset keeps every PoP slot (withdrawn or budget-starved
// PoPs simply carry zero tasks), so PartitionPass, ProbeShard and
// GatherPass run unchanged over it and inherit the campaign engine's
// worker-count and kill/resume determinism.

// NumPoPs returns how many PoPs the plan assigns tasks to.
func (a *Assignments) NumPoPs() int { return len(a.popNames) }

// PoPName returns the name of PoP slot pi.
func (a *Assignments) PoPName(pi int) string { return a.popNames[pi] }

// NumTasks returns how many (domain, scope) probe tasks PoP slot pi
// carries.
func (a *Assignments) NumTasks(pi int) int { return len(a.tasks[pi]) }

// TaskAt returns the domain and query scope of task ti of PoP slot pi.
func (a *Assignments) TaskAt(pi, ti int) (domain string, scope netx.Prefix) {
	t := a.tasks[pi][ti]
	return a.domains[t.domain], t.scope
}

// Subset builds a plan containing, per PoP slot, only the tasks whose
// indices appear in sel[pi] (which must be sorted ascending; indices out
// of range are ignored, and sel may be shorter than the PoP list). PoP
// names, the domain catalog, coordinates and the scope-geography table
// are shared with the parent plan; task slices are fresh and sized once,
// so the parent is never mutated.
func (a *Assignments) Subset(sel [][]int) *Assignments {
	sub := &Assignments{
		popNames: a.popNames,
		tasks:    make([][]probeTask, len(a.tasks)),
		domains:  a.domains,
		coords:   a.coords,
		geo:      a.geo,
	}
	for pi := range a.tasks {
		if pi >= len(sel) {
			continue
		}
		sub.tasks[pi] = make([]probeTask, 0, len(sel[pi]))
		for _, ti := range sel[pi] {
			if ti < 0 || ti >= len(a.tasks[pi]) {
				continue
			}
			sub.tasks[pi] = append(sub.tasks[pi], a.tasks[pi][ti])
		}
	}
	return sub
}
