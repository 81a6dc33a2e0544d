package cacheprobe

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"clientmap/internal/clockx"
	"clientmap/internal/dnswire"
	"clientmap/internal/faults"
	"clientmap/internal/health"
	"clientmap/internal/metrics"
	"clientmap/internal/netx"
	"clientmap/internal/par"
	"clientmap/internal/randx"
)

// Shard/scatter/gather decomposition of a probing pass.
//
// PartitionPass cuts a pass's assignment into (PoP, contiguous task
// block) units and deals them into N shards. ProbeShard executes one
// shard's units against the shared world seed and exports a ShardResult:
// index-slotted task outcomes plus the shard's *deltas* of the fault,
// metrics and breaker-window ledgers. GatherPass reassembles the shards
// into the exact per-(PoP, task) result layout the monolithic pass
// produced and replays the sequential merge, yielding a PassDelta.
//
// The decomposition is exact, not approximate: every probe's transaction
// id, schedule timestamp, retry allowance, jitter and hedge decision is
// a pure function of (seed, content key, scheduled time), none of which
// mention the shard — so a task's wire outcome is identical whichever
// shard (or process) runs it, and the gathered campaign is byte-identical
// to the single-process one for any shard count, worker count and
// kill/resume point.

// ShardUnit is one contiguous block [Lo, Hi) of a PoP's task list.
type ShardUnit struct {
	// PoPIndex is the PoP's position in the assignment's sorted PoP
	// order; PoP is its name.
	PoPIndex int
	PoP      string
	// Lo and Hi bound the unit's task indices: global positions in the
	// PoP's full task list, so schedules and budget draws computed inside
	// the unit match the monolithic pass's.
	Lo, Hi int
}

// PartitionPass cuts a pass into shards: each PoP's task list is split
// into up to `shards` contiguous blocks, and the blocks are dealt
// round-robin across the shard bins in hash order — a deterministic
// shuffle, so consecutive blocks of one PoP spread across runners
// instead of piling onto one. Always returns exactly `shards` bins (some
// possibly empty); callers index the result by shard number. A pure
// function of the assignment shape, identical in every process.
func PartitionPass(asg *Assignments, pass, shards int) [][]ShardUnit {
	if shards < 1 {
		shards = 1
	}
	var units []ShardUnit
	for pi, pop := range asg.popNames {
		n := len(asg.tasks[pi])
		if n == 0 {
			continue
		}
		block := (n + shards - 1) / shards
		for lo := 0; lo < n; lo += block {
			hi := lo + block
			if hi > n {
				hi = n
			}
			units = append(units, ShardUnit{PoPIndex: pi, PoP: pop, Lo: lo, Hi: hi})
		}
	}
	sort.Slice(units, func(i, j int) bool {
		hi, hj := unitHash(pass, units[i]), unitHash(pass, units[j])
		if hi != hj {
			return hi < hj
		}
		if units[i].PoPIndex != units[j].PoPIndex {
			return units[i].PoPIndex < units[j].PoPIndex
		}
		return units[i].Lo < units[j].Lo
	})
	bins := make([][]ShardUnit, shards)
	for i, u := range units {
		bins[i%shards] = append(bins[i%shards], u)
	}
	return bins
}

// unitHash orders units pseudo-randomly but deterministically (FNV-1a
// over the unit's identity; the pass leads so the deal rotates per pass).
func unitHash(pass int, u ShardUnit) uint64 {
	var kb [64]byte
	k := append(kb[:0], "shard/"...)
	k = strconv.AppendInt(k, int64(pass), 10)
	k = append(k, '/')
	k = append(k, u.PoP...)
	k = append(k, '/')
	k = strconv.AppendInt(k, int64(u.Lo), 10)
	return randx.FNV64a(k)
}

// ShardTaskResult is one task's outcome inside a shard, keyed by its
// global (PoP, task) position. Lost tasks (routed nowhere this pass)
// appear with zero counts so the gather step can verify full coverage.
type ShardTaskResult struct {
	PoPIndex  int
	TaskIndex int
	Hit       bool
	RespScope netx.Prefix
	At        time.Time
	Probes    int
	// Retry and hedge ledger counts, mirroring retryAccount.
	RetrySpent     int
	RetryRecovered int
	RetryExhausted int
	HedgeFired     int
	HedgeWon       int
}

// ShardResult is one shard's complete output: per-task outcomes plus the
// shard's deltas of every order-independent ledger it touched. Deltas —
// not absolute values — so the gather step can sum shards from different
// processes, whose in-process counters started at different values.
type ShardResult struct {
	Pass int
	// Units are the units executed, in canonical (PoPIndex, Lo) order.
	Units []ShardUnit
	// Tasks holds one entry per task in the units' ranges, in unit order.
	Tasks []ShardTaskResult
	// Faults is the delta of injected-fault counters over the shard's
	// execution.
	Faults faults.Stats
	// Metrics is the registry snapshot delta over LedgerPrefixes.
	Metrics metrics.Ledger
	// Windows is the delta of breaker window sums the shard's probe
	// outcomes contributed (health.DiffWindows form). Nil when the
	// degradation layer is off or nothing was observed.
	Windows map[string][]health.WindowSum
}

// passSpan returns pass k's window start and length.
func (p *Prober) passSpan(start time.Time, pass int) (time.Time, time.Duration) {
	passWindow := p.cfg.Duration / time.Duration(p.cfg.Passes)
	return start.Add(time.Duration(pass) * passWindow), passWindow
}

// ProbeShard executes one shard of a pass: the given units of the pass's
// assignment, scheduled and keyed exactly as the monolithic pass would
// schedule and key them. It does not mutate camp — the campaign advances
// only when GatherPass folds the shards — and it returns only deltas, so
// shards executed in different processes compose. It is the encode half
// of the scatter/gather path: execUnits fills the results, and this copies
// them into the exported ShardTaskResult form.
func (p *Prober) ProbeShard(ctx context.Context, pops map[string]*Vantage, asg *Assignments, pass int, start time.Time, camp *Campaign, units []ShardUnit) *ShardResult {
	passStart, passWindow := p.passSpan(start, pass)

	// One shard (or gather) at a time per process: the ledger deltas
	// below are registry snapshot differences, and two overlapping
	// windows in one process would absorb each other's increments.
	// Cross-process shards have separate registries and need no lock.
	p.execMu.Lock()
	defer p.execMu.Unlock()

	// Sync the breaker tracker to the checkpointed campaign and compute
	// the pass plan from the frozen timeline — the identical plan every
	// shard and the gather step derive, because all start from the same
	// checkpoint. Plan before the metric snapshot: planning observes the
	// failover-distance histogram, and that observation is counted once,
	// by the gather step's own (re-computed) plan — a shard's copy must
	// stay out of its delta.
	p.healthSync(camp, passStart)
	plans := p.planPass(pops, asg, camp, pass, passStart)

	var preWindows map[string][]health.WindowSum
	if p.cfg.Health != nil {
		preWindows = p.cfg.Health.ExportWindows()
	}
	fBefore := p.cfg.FaultCounters.Snapshot()
	mBefore := p.m.before(camp)

	units = append([]ShardUnit(nil), units...)
	sort.Slice(units, func(i, j int) bool {
		if units[i].PoPIndex != units[j].PoPIndex {
			return units[i].PoPIndex < units[j].PoPIndex
		}
		return units[i].Lo < units[j].Lo
	})
	n := 0
	for _, u := range units {
		n += u.Hi - u.Lo
	}
	slots := make([]probeResult, n)
	res := make([][]probeResult, len(units))
	for ui, u := range units {
		res[ui], slots = slots[:u.Hi-u.Lo], slots[u.Hi-u.Lo:]
	}
	p.execUnits(ctx, pops, asg, pass, passStart, passWindow, plans, units, res)

	sr := &ShardResult{Pass: pass, Units: units, Tasks: make([]ShardTaskResult, 0, n)}
	for ui, u := range units {
		for i := range res[ui] {
			r := &res[ui][i]
			sr.Tasks = append(sr.Tasks, ShardTaskResult{
				PoPIndex:       u.PoPIndex,
				TaskIndex:      u.Lo + i,
				Hit:            r.hit,
				RespScope:      r.respScope,
				At:             r.at,
				Probes:         r.probes,
				RetrySpent:     r.retry.spent,
				RetryRecovered: r.retry.recovered,
				RetryExhausted: r.retry.exhausted,
				HedgeFired:     r.retry.hedgeFired,
				HedgeWon:       r.retry.hedgeWon,
			})
		}
	}
	sr.Metrics = p.m.reg.SnapshotPrefix(LedgerPrefixes...).Sub(mBefore)
	sr.Faults = p.cfg.FaultCounters.Snapshot().Sub(fBefore)
	if p.cfg.Health != nil {
		sr.Windows = health.DiffWindows(p.cfg.Health.ExportWindows(), preWindows)
	}
	return sr
}

// execUnits executes a pass's units against the frozen plan, writing task
// Lo+i of unit ui into out[ui][i] — the one result slot that task has for
// the whole pass. The pass's one pool claims (unit, probeChunk-wide task
// block) batches from a flat list; workers write only their own slots,
// so the outcome is the same for any worker count. Callers hold execMu.
func (p *Prober) execUnits(ctx context.Context, pops map[string]*Vantage, asg *Assignments, pass int, passStart time.Time, passWindow time.Duration, plans []popPlan, units []ShardUnit, out [][]probeResult) {
	type batch struct{ ui, lo, hi int } // tasks [lo, hi) of units[ui], unit-relative
	var batches []batch
	delays := make([]*metrics.Histogram, len(units))
	allowScopes := make([]string, len(units))
	for ui, u := range units {
		for lo := 0; lo < u.Hi-u.Lo; lo += probeChunk {
			batches = append(batches, batch{ui, lo, min(lo+probeChunk, u.Hi-u.Lo)})
		}
		delays[ui] = p.m.popDelay(u.PoP)
		allowScopes[ui] = "probe/" + strconv.Itoa(pass) + "/" + u.PoP
	}
	par.ForEach(len(batches), p.workers(), func(bi int) {
		b := batches[bi]
		u := units[b.ui]
		pop := u.PoP
		v := pops[pop]
		tasks := asg.tasks[u.PoPIndex]
		slots := out[b.ui]
		// Per-batch scratch: one pooled query message, a key buffer
		// pre-filled with "probe/<pass>/<pop>/", one re-stamped time
		// carrier. Batch boundaries carry no state, so splitting a PoP's
		// tasks across units changes nothing.
		q := dnswire.AcquireMessage()
		defer dnswire.ReleaseMessage(q)
		var kb [192]byte
		keyBuf := append(kb[:0], "probe/"...)
		keyBuf = strconv.AppendInt(keyBuf, int64(pass), 10)
		keyBuf = append(keyBuf, '/')
		keyBuf = append(keyBuf, pop...)
		keyBuf = append(keyBuf, '/')
		popLen := len(keyBuf)
		carrier := &clockx.TimeCarrier{Context: ctx}
		var hedge hedgeOption
		for i := b.lo; i < b.hi; i++ {
			// ti is the task's global index in the PoP's full list:
			// schedules, allowances and keys must not see the shard.
			ti := u.Lo + i
			tk := tasks[ti]
			pv := v
			r := &slots[i]
			if plans != nil {
				rt := plans[u.PoPIndex].route(ti)
				if rt.kind == health.RouteLost {
					continue // no in-radius fallback: not probed this pass
				}
				pv = rt.v
				hedge = plans[u.PoPIndex].hedgeFor(rt)
				r.retry.hedge = &hedge
			}
			offset := time.Duration(float64(passWindow) * float64(ti) / float64(len(tasks)+1))
			carrier.T = passStart.Add(offset)
			r.retry.remaining = p.retryAllowance(allowScopes[b.ui], ti, len(tasks))
			r.retry.delays = delays[b.ui]
			key := append(keyBuf[:popLen], tk.domain...)
			key = append(key, '/')
			key = tk.scope.AppendTo(key)
			kLen := len(key)
			base := p.txidBase(key)
			for a := 0; a < p.cfg.Redundancy; a++ {
				ak := strconv.AppendInt(append(key[:kLen], '/'), int64(a), 10)
				hit, respScope := p.snoop(carrier, pv, q, txidAt(base, a), tk.domain, tk.scope, ak, &r.retry)
				r.probes++
				if hit {
					r.hit, r.respScope = true, respScope
					r.at = carrier.T
					break
				}
			}
		}
	})
}

// GatherPass merges a pass's shard results into a PassDelta and applies
// it to camp — the deterministic gather step. The shards may come from
// this process or be decoded from other runners' snapshots; either way
// the merge replays the monolithic pass's sequential fold in (sorted
// PoP, task index) order, so the applied campaign is byte-identical to
// the single-process pass. Errors if the shards do not cover the
// assignment exactly once. It is the decode half of the scatter/gather
// path: it rebuilds the per-task slots and hands them to foldPass.
func (p *Prober) GatherPass(pops map[string]*Vantage, asg *Assignments, pass int, start time.Time, camp *Campaign, results []*ShardResult) (*PassDelta, error) {
	popNames := asg.popNames
	passStart, passWindow := p.passSpan(start, pass)

	p.execMu.Lock()
	defer p.execMu.Unlock()

	// Snapshot before planning: the plan's failover-distance observations
	// belong to this pass's ledger delta, and the gather step is where
	// they are counted (exactly once — shards exclude theirs).
	fBefore := p.cfg.FaultCounters.Snapshot()
	mBefore := p.m.before(camp)
	p.healthSync(camp, passStart)
	plans := p.planPass(pops, asg, camp, pass, passStart)

	// Reassemble the monolithic pass's per-(PoP, task) result layout and
	// verify exactly-once coverage.
	res := make([][]probeResult, len(popNames))
	seen := make([][]bool, len(popNames))
	for pi := range popNames {
		res[pi] = make([]probeResult, len(asg.tasks[pi]))
		seen[pi] = make([]bool, len(asg.tasks[pi]))
	}
	for _, sr := range results {
		if sr == nil {
			return nil, fmt.Errorf("cacheprobe: gather pass %d: missing shard result", pass)
		}
		if sr.Pass != pass {
			return nil, fmt.Errorf("cacheprobe: gather pass %d: shard result is for pass %d", pass, sr.Pass)
		}
		for _, tr := range sr.Tasks {
			if tr.PoPIndex < 0 || tr.PoPIndex >= len(popNames) || tr.TaskIndex < 0 || tr.TaskIndex >= len(res[tr.PoPIndex]) {
				return nil, fmt.Errorf("cacheprobe: gather pass %d: task (%d,%d) outside the assignment", pass, tr.PoPIndex, tr.TaskIndex)
			}
			if seen[tr.PoPIndex][tr.TaskIndex] {
				return nil, fmt.Errorf("cacheprobe: gather pass %d: task (%d,%d) covered twice", pass, tr.PoPIndex, tr.TaskIndex)
			}
			seen[tr.PoPIndex][tr.TaskIndex] = true
			res[tr.PoPIndex][tr.TaskIndex] = probeResult{
				hit:       tr.Hit,
				respScope: tr.RespScope,
				at:        tr.At,
				probes:    tr.Probes,
				retry: retryAccount{
					spent:      tr.RetrySpent,
					recovered:  tr.RetryRecovered,
					exhausted:  tr.RetryExhausted,
					hedgeFired: tr.HedgeFired,
					hedgeWon:   tr.HedgeWon,
				},
			}
		}
	}
	for pi, pop := range popNames {
		for ti, ok := range seen[pi] {
			if !ok {
				return nil, fmt.Errorf("cacheprobe: gather pass %d: task %d of PoP %s missing from the shards", pass, ti, pop)
			}
		}
	}
	return p.foldPass(asg, pass, passStart, passWindow, camp, plans, res, fBefore, mBefore, results), nil
}

// foldPass replays the monolithic pass's sequential merge over the
// per-(PoP, task) slots res, accumulating into a PassDelta, and applies
// the delta to camp — the same code path a restored delta checkpoint
// takes. fBefore and mBefore are the fault and metric snapshots the
// caller took before planning; ledgers carry the task executions'
// ledger deltas that fell outside that window (only their Faults,
// Metrics and Windows are read). Callers hold execMu.
func (p *Prober) foldPass(asg *Assignments, pass int, passStart time.Time, passWindow time.Duration, camp *Campaign, plans []popPlan, res [][]probeResult, fBefore faults.Stats, mBefore metrics.Ledger, ledgers []*ShardResult) *PassDelta {
	popNames := asg.popNames
	delta := &PassDelta{Pass: pass, Passes: p.cfg.Passes, PassTime: passStart}
	// Record the per-PoP assignment sizes BuildAssignments stamped onto
	// the campaign: the delta is the only thing a restored chain replays,
	// and the assignment is never rebuilt there.
	for pi, pop := range popNames {
		if _, ok := camp.PoPs[pop]; ok {
			if delta.Assigned == nil {
				delta.Assigned = make(map[string]int, len(popNames))
			}
			delta.Assigned[pop] = len(asg.tasks[pi])
		}
	}

	passProbes, passHits := p.m.passProbes(pass), p.m.passHits(pass)
	cov := health.PassCoverage{Pass: pass}
	for pi, pop := range popNames {
		tasks := asg.tasks[pi]
		// Touch the per-PoP retry-delay histogram: the monolithic pass
		// resolves it for every PoP, shards only for the PoPs they ran,
		// and the fold's key set must not depend on the shard split.
		p.m.popDelay(pop)
		var popProbes, popHits, popSpent int64
		for ti := range res[pi] {
			r := &res[pi][ti]
			hitPoP := pop
			if plans != nil {
				rt := plans[pi].route(ti)
				cov.Assigned++
				switch rt.kind {
				case health.RoutePrimary:
					cov.Primary++
				case health.RouteTrial:
					cov.Trial++
				case health.RouteAlternate:
					cov.Alternate++
					delta.Health.FailOver(pop)
					p.m.failoverVantage.Inc()
				case health.RouteFallback:
					cov.Fallback++
					delta.Health.FailOver(pop)
					p.m.failoverPoP.Inc()
					hitPoP = rt.pop // hits belong to the PoP that served them
				case health.RouteLost:
					cov.Lost++
					delta.Health.LoseTask(pop, ti)
					p.m.failoverLost.Inc()
					continue // the slot holds no probe to account
				}
				delta.Health.AddHedges(int64(r.retry.hedgeFired), int64(r.retry.hedgeWon))
				p.m.countHedges(&r.retry)
			}
			sent := int64(r.probes + r.retry.spent + r.retry.hedgeFired)
			delta.ProbesSent += int(sent)
			popProbes += sent
			popSpent += int64(r.retry.spent)
			delta.Faults.addRetries(&r.retry)
			p.m.countRetries(&r.retry)
			if r.hit {
				popHits++
				delta.Hits = append(delta.Hits, DeltaHit{
					Domain:     tasks[ti].domain,
					QueryScope: tasks[ti].scope,
					RespScope:  r.respScope,
					PoP:        hitPoP,
					At:         r.at,
				})
			}
		}
		p.m.probeProbes.Add(popProbes)
		p.m.probeHits.Add(popHits)
		p.m.probeMisses.Add(int64(len(tasks)) - popHits)
		passProbes.Add(popProbes)
		passHits.Add(popHits)
		p.m.popProbes(pop).Add(popProbes)
		p.m.popHits(pop).Add(popHits)
		p.cfg.Trace.Emit(metrics.Span{
			Time: passStart, Stage: fmt.Sprintf("probe-pass-%d", pass), Pass: pass, PoP: pop, Event: "probed",
			Fields: map[string]int64{
				"tasks": int64(len(tasks)), "probes": popProbes,
				"hits": popHits, "retries_spent": popSpent,
			},
		})
	}

	// The executions' injected-fault deltas partition the pass's
	// injections (faults only fire while probes exchange); the fold
	// itself injects nothing, but its window is summed for uniformity.
	delta.Faults.addInjected(p.cfg.FaultCounters.Snapshot().Sub(fBefore))
	for _, l := range ledgers {
		delta.Faults.addInjected(l.Faults)
	}

	if plans != nil {
		delta.Health.Coverage = []health.PassCoverage{cov}
		// Fold the executions' window deltas over the pre-pass checkpoint
		// — reconstructing exactly the windows the monolithic pass's
		// tracker held — then advance to the pass end so the pass's
		// observations replay into transitions. The transition timeline
		// is a prefix-monotone pure function of the windows, so the tail
		// beyond the checkpoint is this pass's contribution.
		sum := map[string][]health.WindowSum{}
		for _, l := range ledgers {
			sum = health.FoldWindows(sum, l.Windows)
		}
		delta.Health.Windows = sum
		t := p.cfg.Health
		t.Restore(health.FoldWindows(camp.Health.Windows, sum))
		t.Advance(passStart.Add(passWindow))
		trs := t.Transitions()
		tail := trs[min(len(camp.Health.Transitions), len(trs)):]
		delta.Health.Transitions = append([]health.Transition(nil), tail...)
		p.countTransitions(tail)
	}

	delta.Metrics = p.m.reg.SnapshotPrefix(LedgerPrefixes...).Sub(mBefore)
	if delta.Metrics == nil {
		delta.Metrics = metrics.Ledger{}
	}
	for _, l := range ledgers {
		delta.Metrics.Merge(l.Metrics)
	}

	delta.Apply(camp)
	return delta
}
