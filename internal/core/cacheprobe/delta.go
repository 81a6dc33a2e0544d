package cacheprobe

import (
	"time"

	"clientmap/internal/health"
	"clientmap/internal/metrics"
	"clientmap/internal/netx"
)

// PassDelta is one probing pass's incremental evidence: everything the
// pass added to the campaign, and nothing the campaign already held. It
// is the per-pass checkpoint artifact of the staged pipeline — a pass's
// snapshot stays the size of the pass's own evidence instead of growing
// with campaign length — and the unit the gather step of a distributed
// campaign produces from its shards. Apply folds it into a campaign;
// applying each pass's delta in order onto the calibrated campaign
// reconstructs the cumulative campaign bit for bit.
type PassDelta struct {
	// Pass is the pass index and Passes the campaign's configured total
	// (the pass stage owns Campaign.Passes, so the delta carries it).
	Pass   int
	Passes int
	// PassTime is the pass window's start time.
	PassTime time.Time
	// ProbesSent counts cache probes the pass issued, retries and hedges
	// included.
	ProbesSent int
	// Assigned records each calibrated PoP's assignment size — state
	// BuildAssignments writes onto the campaign as a side effect, which a
	// restored chain (which never rebuilds assignments) must recover from
	// the delta. Idempotent: every pass of a campaign carries the same
	// values.
	Assigned map[string]int
	// Hits are the pass's cache hits in merge order (sorted PoP, task
	// index) — the order the sequential prober recorded them in, which
	// first-hit PoP attribution depends on.
	Hits []DeltaHit
	// Metrics is the pass's registry snapshot delta over LedgerPrefixes:
	// its instrumentation and reliability counters.
	Metrics metrics.Ledger
	// Health is the pass's degradation-ledger delta: window sums as
	// differences, the newly replayed transition tail, failover counts,
	// and the pass's coverage row. Zero when the degradation layer is
	// off.
	Health health.Ledger
	// Base is the artifact hash of the campaign snapshot this delta
	// applies to — the upstream stage's checkpoint. Applying a delta to
	// any other campaign state would silently corrupt the fold, so
	// consumers verify Base before Apply.
	Base string
}

// DeltaHit is one cache hit observed during a pass.
type DeltaHit struct {
	// Domain and QueryScope identify the probe task; RespScope is the
	// scope the cache returned (the activity claim's granularity).
	Domain     string
	QueryScope netx.Prefix
	RespScope  netx.Prefix
	// PoP is the site the hit is attributed to (the serving PoP when the
	// task was re-routed cross-PoP).
	PoP string
	// At is the hit's (simulated) timestamp.
	At time.Time
}

// Apply folds the delta into camp. It is the single code path that
// advances a campaign by one pass — the staged runner uses it both when
// a pass just ran and when a checkpointed delta is restored, so the two
// can never diverge.
func (d *PassDelta) Apply(camp *Campaign) {
	camp.Passes = d.Passes
	camp.PassTimes = append(camp.PassTimes, d.PassTime)
	camp.ProbesSent += d.ProbesSent
	for pop, n := range d.Assigned {
		if cal, ok := camp.PoPs[pop]; ok {
			cal.Assigned = n
		}
	}
	for i := range d.Hits {
		h := &d.Hits[i]
		recordHit(camp, d.Pass, h.PoP, h.Domain, h.QueryScope, h.RespScope, h.At)
	}
	if len(d.Metrics) > 0 {
		camp.Metrics.Merge(d.Metrics)
	}

	hd := &d.Health
	if len(hd.Windows) > 0 {
		camp.Health.Windows = health.FoldWindows(camp.Health.Windows, hd.Windows)
	}
	camp.Health.Transitions = append(camp.Health.Transitions, hd.Transitions...)
	camp.Health.Coverage = append(camp.Health.Coverage, hd.Coverage...)
	for pop, n := range hd.FailedOver {
		if camp.Health.FailedOver == nil {
			camp.Health.FailedOver = make(map[string]int64)
		}
		camp.Health.FailedOver[pop] += n
	}
	for pop, tasks := range hd.LostTasks {
		if camp.Health.LostTasks == nil {
			camp.Health.LostTasks = make(map[string]map[int]int)
		}
		m := camp.Health.LostTasks[pop]
		if m == nil {
			m = make(map[int]int, len(tasks))
			camp.Health.LostTasks[pop] = m
		}
		for ti, n := range tasks {
			m[ti] += n
		}
	}
}

// recordHit folds one hit into the campaign's evidence maps. The caller
// replays hits in merge order: the first hit on a response scope fixes
// the scope's PoP attribution.
func recordHit(camp *Campaign, pass int, pop, domain string, queryScope, respScope netx.Prefix, at time.Time) {
	hits := camp.Hits[domain]
	if hits == nil {
		hits = make(map[netx.Prefix]*Hit)
		camp.Hits[domain] = hits
	}
	h, ok := hits[respScope]
	if !ok {
		h = &Hit{RespScope: respScope, QueryScope: queryScope, PoP: pop, Domain: domain}
		hits[respScope] = h
		camp.PoPHits[pop]++
	}
	h.Count++
	if pass >= 0 && pass < 64 {
		h.PassMask |= 1 << uint(pass)
	}
	h.Times = append(h.Times, at)

	diff := respScope.Bits() - queryScope.Bits()
	if diff < 0 {
		diff = -diff
	}
	dd := camp.ScopeDiffs[domain]
	if dd == nil {
		dd = make(map[int]int)
		camp.ScopeDiffs[domain] = dd
	}
	dd[diff]++
}
