package cacheprobe

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clientmap/internal/clockx"
	"clientmap/internal/dnswire"
	"clientmap/internal/geo"
	"clientmap/internal/health"
	"clientmap/internal/metrics"
	"clientmap/internal/netx"
	"clientmap/internal/par"
)

// Prober executes campaigns.
//
// Concurrency model: each stage makes one par.ForEach call over a flat
// list of independent items — pre-scan spans, (PoP, sample) calibration
// slots, per-PoP assignments, (unit, 256-task batch) pairs — so a
// stage never runs more than Config.Workers goroutines. Results are
// bit-identical for any worker count because nothing a worker does
// depends on what other workers have already done:
//
//   - every probe's simulated timestamp is computed from its (pass, task)
//     position up front and carried on the context (clockx.WithTime), so
//     workers never touch the shared Sim clock;
//   - DNS transaction ids are content-derived hashes, not a shared counter;
//   - workers write results only into their own index slot of a
//     pre-allocated slice, and the slots are merged into the Campaign
//     sequentially in the same (pass, sorted PoP, task index) order the
//     sequential implementation used.
type Prober struct {
	cfg      Config
	vantages []Vantage
	auth     Authoritative
	// alts maps each discovered PoP to the vantages beyond the first
	// whose anycast route reaches it — the hedge and failover partners
	// that recover the PoP's shared caches when its primary degrades.
	alts map[string][]*Vantage
	// hedgeAfter caches the health policy's hedge threshold (0 = off).
	hedgeAfter time.Duration
	// m holds the resolved metric handles (all discarding when
	// Config.Metrics is nil), so hot loops never touch the registry.
	m proberMetrics
	// execMu serializes shard execution and gathering within this
	// process: the shard ledgers are registry snapshot deltas, and two
	// overlapping snapshot windows would absorb each other's increments.
	// Shards in different processes have separate registries and run
	// fully in parallel.
	execMu sync.Mutex
}

// NewProber builds a prober from vantage points and the authoritative
// access used by the pre-scan.
func NewProber(cfg Config, vantages []Vantage, auth Authoritative) *Prober {
	cfg = cfg.withDefaults()
	p := &Prober{cfg: cfg, vantages: vantages, auth: auth, m: newProberMetrics(cfg.Metrics)}
	if cfg.Health != nil && cfg.Health.Config().Hedging() {
		p.hedgeAfter = cfg.Health.Config().HedgeAfter
	}
	return p
}

// workers is every stage's pool size (Config.Workers, 0 = GOMAXPROCS).
func (p *Prober) workers() int { return par.Workers(p.cfg.Workers) }

// txidBase derives the base DNS transaction id for a probe from its
// content key; attempt a sends with txidAt(base, a). A shared counter
// would hand out ids in arrival order — racy under concurrency, and
// enough to change which cache pool a query reaches. Hashing the content
// keeps ids deterministic for any worker count; consecutive attempt
// numbers keep a redundancy burst spread across a site's pools, which is
// the reason redundant copies exist (§3.1.1).
//
// The hash domain "cacheprobe/txid/<key>" is byte-built in stack scratch
// and must equal the former string concatenation — the ids select cache
// pools, so any drift would move every probe's pool assignment.
func (p *Prober) txidBase(key []byte) uint16 {
	var kb [208]byte
	k := append(kb[:0], "cacheprobe/txid/"...)
	k = append(k, key...)
	return uint16(p.cfg.Seed.Hash64B(k))
}

// txidAt offsets the base id by the redundancy attempt, avoiding the
// reserved id 0. The base hash is computed once per task: every attempt
// of a task hashes the same content key.
func txidAt(base uint16, attempt int) uint16 {
	id := base + uint16(attempt)
	if id == 0 {
		id = 1
	}
	return id
}

// stageFaults snapshots the shared fault-injector counters and returns a
// closure that folds the delta — the faults injected during this stage —
// into the campaign's ledger. The campaign is the checkpointed artifact,
// so a resumed run reports the same fault counts as an uninterrupted one
// even though the in-process injector counters reset on restart.
func (p *Prober) stageFaults(camp *Campaign) func() {
	before := p.cfg.FaultCounters.Snapshot()
	return func() {
		camp.Faults.addInjected(p.cfg.FaultCounters.Snapshot().Sub(before))
	}
}

// snoop sends one non-recursive ECS probe on the caller's reused scratch
// query q and reports (hit, response scope). Timeouts and errors count as
// misses, as in live probing — but with a retry policy configured, each
// failed try is retried (within the task's budget allowance in acct)
// before the miss is accepted. key is the probe's content key plus
// redundancy attempt: the hash domain for backoff jitter and per-try
// fault decisions. The response is a pooled message and snoop is its
// final consumer: it extracts the verdict and releases it.
func (p *Prober) snoop(ctx context.Context, v *Vantage, q *dnswire.Message, id uint16, domain string, scope netx.Prefix, key []byte, acct *retryAccount) (bool, netx.Prefix) {
	q.SetQuery(id, domain, dnswire.TypeA).WithECS(scope)
	q.RecursionDesired = false
	resp, err := p.exchange(ctx, v.Exchanger, v.Server, q, key, acct)
	if err != nil || resp == nil {
		return false, netx.Prefix{}
	}
	// A return scope of 0 means the entry covers the whole address space;
	// it says nothing about this prefix (§3.1.1).
	hit := len(resp.Answers) > 0 &&
		resp.EDNS != nil && resp.EDNS.ECS != nil && resp.EDNS.ECS.ScopePrefixLen != 0
	var out netx.Prefix
	if hit {
		out = netx.PrefixFrom(scope.Addr(), int(resp.EDNS.ECS.ScopePrefixLen))
	}
	dnswire.ReleaseMessage(resp)
	return hit, out
}

// DiscoverPoPs maps each vantage to the PoP its anycast route reaches and
// keeps one vantage per PoP (stage 1). The stage is a handful of queries,
// one per vantage, and runs sequentially.
func (p *Prober) DiscoverPoPs(ctx context.Context) (map[string]*Vantage, error) {
	out := make(map[string]*Vantage)
	p.alts = make(map[string][]*Vantage)
	q := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(q)
	var kb [64]byte
	for i := range p.vantages {
		v := &p.vantages[i]
		key := append(kb[:0], "discover/"...)
		key = append(key, v.Name...)
		q.SetQuery(txidAt(p.txidBase(key), 0), "o-o.myaddr.l.google.com", dnswire.TypeTXT)
		// Discovery is one query per vantage: a single drop would lose a
		// whole PoP for the campaign, so the retry policy applies here
		// too (unbudgeted — the stage is a handful of queries).
		resp, err := p.exchange(ctx, v.Exchanger, v.Server, q, key, nil)
		if err != nil || resp == nil || len(resp.Answers) == 0 {
			dnswire.ReleaseMessage(resp)
			continue // vantage cannot reach the service
		}
		var pop string
		if txt, ok := resp.Answers[0].Data.(dnswire.TXT); ok && len(txt.Strings) > 0 {
			pop = txt.Strings[0]
		}
		dnswire.ReleaseMessage(resp)
		if pop == "" {
			continue
		}
		if _, exists := out[pop]; !exists {
			out[pop] = v
		} else {
			// Further vantages routed to an already-claimed PoP become its
			// alternates, in vantage order: same caches, different path.
			p.alts[pop] = append(p.alts[pop], v)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cacheprobe: no vantage reached any PoP")
	}
	p.cfg.Trace.Emit(metrics.Span{
		Time: p.cfg.Clock.Now(), Stage: "pop-discovery", Event: "discovered",
		Fields: map[string]int64{"vantages": int64(len(p.vantages)), "pops": int64(len(out))},
	})
	return out, nil
}

// PreScan queries the authoritative resolvers across the universe to learn
// response scopes, skipping ahead by each returned scope (stage 2,
// validated in appendix A.2). It returns per-domain sorted scope lists.
//
// The scan fans out over (domain, universe block) spans: the skip-ahead
// walk is sequential within a block by nature (each response determines
// the next query), but blocks and domains are independent of each other.
func (p *Prober) PreScan(ctx context.Context, camp *Campaign) error {
	type span struct {
		domain string
		block  netx.Prefix
	}
	var spans []span
	for _, d := range p.cfg.Domains {
		if !d.SupportsECS {
			continue
		}
		for _, block := range p.cfg.Universe {
			spans = append(spans, span{domain: d.Name, block: block})
		}
	}

	fin := p.stageFaults(camp)
	defer fin()
	finM := p.stageMetrics(camp)
	defer finM()
	p.healthSync(camp, p.cfg.Clock.Now())
	prescanDelay := p.m.reg.Histogram("cacheprobe/prescan/retry_delay_ms", retryDelayBounds)
	results := make([][]netx.Prefix, len(spans))
	accounts := make([]retryAccount, len(spans))
	var queries atomic.Int64
	par.ForEach(len(spans), p.workers(), func(i int) {
		sp := spans[i]
		// The pre-scan has no redundancy: a dropped response silently
		// loses its scope from the campaign's coverage. Retries apply
		// (unbudgeted — the per-PoP budget governs the probing stages;
		// this path talks to the authoritative resolvers).
		acct := &accounts[i]
		acct.remaining = -1
		acct.delays = prescanDelay
		// One scratch query per span, and a key buffer pre-filled with the
		// span's constant "prescan/<domain>/" prefix; the walk re-stamps
		// both per /24. Key bytes are identical to the former
		// fmt.Sprintf("prescan/%s/%s", domain, s24).
		q := dnswire.AcquireMessage()
		defer dnswire.ReleaseMessage(q)
		var kb [96]byte
		pfx := append(kb[:0], "prescan/"...)
		pfx = append(pfx, sp.domain...)
		pfx = append(pfx, '/')
		base := len(pfx)
		var scopes []netx.Prefix
		sent := 0
		cur := uint32(sp.block.FirstSlash24())
		end := cur + uint32(sp.block.NumSlash24s())
		for cur < end {
			s24 := netx.Slash24(cur)
			key := s24.AppendTo(pfx[:base])
			q.SetQuery(txidAt(p.txidBase(key), 0), sp.domain, dnswire.TypeA).WithECS(s24.Prefix())
			resp, err := p.exchange(ctx, p.auth.Exchanger, p.auth.Server, q, key, acct)
			sent++
			if err != nil || resp == nil || resp.EDNS == nil || resp.EDNS.ECS == nil {
				dnswire.ReleaseMessage(resp)
				cur++
				continue
			}
			bits := int(resp.EDNS.ECS.ScopePrefixLen)
			dnswire.ReleaseMessage(resp)
			if bits == 0 || bits > 24 {
				bits = 24
			}
			scope := netx.PrefixFrom(s24.Addr(), bits)
			scopes = append(scopes, scope)
			// Skip every /24 the returned scope covers.
			cur = uint32(scope.FirstSlash24()) + uint32(scope.NumSlash24s())
		}
		results[i] = scopes
		queries.Add(int64(sent + acct.spent))
	})
	for i := range accounts {
		camp.Faults.addRetries(&accounts[i])
		p.m.countRetries(&accounts[i])
	}

	// Merge the spans back per domain, in span order, then sort.
	si := 0
	for _, d := range p.cfg.Domains {
		if !d.SupportsECS {
			continue
		}
		var scopes []netx.Prefix
		for range p.cfg.Universe {
			scopes = append(scopes, results[si]...)
			si++
		}
		sort.Slice(scopes, func(i, j int) bool {
			if scopes[i].Addr() != scopes[j].Addr() {
				return scopes[i].Addr() < scopes[j].Addr()
			}
			return scopes[i].Bits() < scopes[j].Bits()
		})
		camp.ScopesByDomain[d.Name] = scopes
	}
	camp.PreScanQueries += int(queries.Load())
	p.m.prescanQueries.Add(queries.Load())
	scopeCount := int64(0)
	for _, scopes := range camp.ScopesByDomain {
		scopeCount += int64(len(scopes))
	}
	p.m.prescanScopes.Add(scopeCount)
	p.healthExport(camp)
	p.cfg.Trace.Emit(metrics.Span{
		Time: p.cfg.Clock.Now(), Stage: "scope-prescan", Event: "scanned",
		Fields: map[string]int64{"queries": queries.Load(), "scopes": scopeCount},
	})
	return nil
}

// calibrationMaxErrKm bounds the geolocation error radius of the prefixes
// calibration samples (§3.1.1: 200 km).
const calibrationMaxErrKm = 200

// serviceRadiusQuantile is the hit-distance quantile that defines each
// PoP's service radius (§3.1.1: the 90th percentile).
const serviceRadiusQuantile = 0.9

// calibrationSample deterministically picks geolocated prefixes with
// error radius under calibrationMaxErrKm.
func (p *Prober) calibrationSample() []netx.Slash24 {
	var eligible []netx.Slash24
	p.cfg.GeoDB.Range(func(s netx.Slash24, loc geo.Location) bool {
		if loc.ErrorKm < calibrationMaxErrKm {
			eligible = append(eligible, s)
		}
		return true
	})
	if len(eligible) <= p.cfg.CalibrationSamples {
		return eligible
	}
	// Deterministic thinning. The hash key is byte-built, identical to
	// the former "cacheprobe/calib/" + s.String() concatenation.
	keep := float64(p.cfg.CalibrationSamples) / float64(len(eligible))
	out := eligible[:0]
	var kb [48]byte
	pfx := append(kb[:0], "cacheprobe/calib/"...)
	base := len(pfx)
	for _, s := range eligible {
		if p.cfg.Seed.HashUnitB(s.AppendTo(pfx[:base])) < keep {
			out = append(out, s)
		}
	}
	return out
}

// Calibrate probes the sample at every PoP with the non-Microsoft probe
// domains and fits each PoP's service radius at the configured quantile
// (stage 3, Figure 2). The stage's pool walks every (PoP, sample) slot;
// each PoP's radius is then folded from its slots in sample order. Every
// calibration probe is scheduled at the campaign start time.
func (p *Prober) Calibrate(ctx context.Context, pops map[string]*Vantage, camp *Campaign) {
	sample := p.calibrationSample()
	popNames := sortedPoPs(pops)
	now := p.cfg.Clock.Now()
	sctx := clockx.WithTime(ctx, now)
	fin := p.stageFaults(camp)
	defer fin()
	finM := p.stageMetrics(camp)
	defer finM()
	p.healthSync(camp, now)

	type calResult struct {
		hit    bool
		dist   float64
		probes int
		retry  retryAccount
	}
	delays := make([]*metrics.Histogram, len(popNames))
	for pi, pop := range popNames {
		delays[pi] = p.m.popDelay(pop)
	}
	// Slot pi*len(sample)+si holds PoP pi's probe of sample prefix si.
	res := make([]calResult, len(popNames)*len(sample))
	par.ForEach(len(res), p.workers(), func(k int) {
		pi, si := k/len(sample), k%len(sample)
		pop, s := popNames[pi], sample[si]
		v := pops[pop]
		loc, ok := p.cfg.GeoDB.Lookup(s)
		if !ok {
			return
		}
		r := &res[k]
		r.retry.remaining = p.retryAllowance("calib/"+pop, si, len(sample))
		r.retry.delays = delays[pi]
		// Content keys are byte-built in stack scratch, identical to the
		// former fmt.Sprintf("calib/%s/%s/%s", pop, s, d.Name) with
		// "/<attempt>" appended for the per-try hash domain.
		q := dnswire.AcquireMessage()
		defer dnswire.ReleaseMessage(q)
		var kb [128]byte
		key := append(kb[:0], "calib/"...)
		key = append(key, pop...)
		key = append(key, '/')
		key = s.AppendTo(key)
		key = append(key, '/')
		sBase := len(key)
		hit := false
		for _, d := range p.cfg.Domains {
			if d.Microsoft {
				continue // calibration uses the Alexa picks only
			}
			key = append(key[:sBase], d.Name...)
			kLen := len(key)
			base := p.txidBase(key)
			for a := 0; a < p.cfg.Redundancy && !hit; a++ {
				ak := strconv.AppendInt(append(key[:kLen], '/'), int64(a), 10)
				hit, _ = p.snoop(sctx, v, q, txidAt(base, a), d.Name, s.Prefix(), ak, &r.retry)
				r.probes++
			}
			if hit {
				break
			}
		}
		if hit {
			r.hit, r.dist = true, geo.DistanceKm(v.Coord, loc.Coord)
		}
	})

	probes := 0
	for pi, pop := range popNames {
		cal := &PoPCalibration{PoP: pop, Vantage: pops[pop].Name}
		var retries retryAccount
		popProbes := int64(0)
		for _, r := range res[pi*len(sample) : (pi+1)*len(sample)] {
			popProbes += int64(r.probes + r.retry.spent)
			retries.add(&r.retry)
			if r.hit {
				cal.HitDistancesKm = append(cal.HitDistancesKm, r.dist)
			}
		}
		probes += int(popProbes)
		sort.Float64s(cal.HitDistancesKm)
		if len(cal.HitDistancesKm) == 0 {
			cal.RadiusKm = MaxServiceRadiusKm
		} else {
			idx := int(serviceRadiusQuantile * float64(len(cal.HitDistancesKm)))
			if idx >= len(cal.HitDistancesKm) {
				idx = len(cal.HitDistancesKm) - 1
			}
			cal.RadiusKm = cal.HitDistancesKm[idx]
		}
		// The paper treats Zurich's 5,524 km as the maximum service
		// radius; clients served from another continent (e.g. regions
		// with no nearby PoP) sit beyond any radius.
		if cal.RadiusKm > MaxServiceRadiusKm {
			cal.RadiusKm = MaxServiceRadiusKm
		}
		camp.PoPs[pop] = cal
		camp.Faults.addRetries(&retries)
		p.m.countRetries(&retries)
		hits := int64(len(cal.HitDistancesKm))
		p.m.calProbes.Add(popProbes)
		p.m.calHits.Add(hits)
		p.m.popProbes(pop).Add(popProbes)
		p.m.popHits(pop).Add(hits)
		p.cfg.Trace.Emit(metrics.Span{
			Time: now, Stage: "calibration", PoP: pop, Event: "calibrated",
			Fields: map[string]int64{
				"samples": int64(len(sample)), "probes": popProbes,
				"hits": hits, "radius_km": int64(cal.RadiusKm),
			},
		})
	}
	camp.ProbesSent += probes
	p.healthExport(camp)
}

// MaxServiceRadiusKm caps service radii when calibration yields no hits
// (the paper's maximum observed radius, Zurich's 5,524 km).
const MaxServiceRadiusKm = 5524.0

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

// probeChunk is the batched-dispatch grain of the probe loop: workers
// claim this many consecutive tasks per synchronization point, and the
// per-chunk scratch (pooled query message, key buffers, time carrier)
// amortizes across the whole chunk.
const probeChunk = 256

// probeTask is one (domain, scope) probe in a PoP's assignment.
type probeTask struct {
	domain string
	scope  netx.Prefix
}

// probeResult is a worker's index-slotted outcome for one task.
type probeResult struct {
	hit       bool
	respScope netx.Prefix
	at        time.Time
	probes    int
	retry     retryAccount
}

// Assignments is the stage-4 probe plan: per-PoP task lists derived from
// the pre-scan scopes and calibration radii. It is a pure function of the
// campaign state, so a resumed run rebuilds it rather than persisting it.
type Assignments struct {
	popNames []string
	tasks    [][]probeTask
	// coords are the PoP locations the assignment was computed with
	// (catalog coordinates, vantage fallback) — reused by the failover
	// planner so in-radius checks match the original assignment's.
	coords map[string]geo.Coord
}

// coord returns the PoP location assignment used, falling back to the
// primary vantage's location exactly as BuildAssignments does.
func (a *Assignments) coord(pop string, pops map[string]*Vantage) geo.Coord {
	if c, ok := a.coords[pop]; ok {
		return c
	}
	return pops[pop].Coord
}

// BuildAssignments computes every PoP's probe assignment (the scopes
// MaxMind places possibly within its service radius, per domain) and
// records the per-PoP assignment sizes on the campaign. PoP coordinates
// come from popCoords (discovered PoP name → location).
func (p *Prober) BuildAssignments(pops map[string]*Vantage, popCoords map[string]geo.Coord, camp *Campaign) *Assignments {
	popNames := sortedPoPs(pops)
	// Build per-PoP assignments concurrently across PoPs (pure reads of
	// the geo database and pre-scan output).
	assignments := make([][]probeTask, len(popNames))
	par.ForEach(len(popNames), p.workers(), func(pi int) {
		pop := popNames[pi]
		coord, ok := popCoords[pop]
		if !ok {
			coord = pops[pop].Coord // fall back to the vantage location
		}
		radius := MaxServiceRadiusKm
		if cal, ok := camp.PoPs[pop]; ok {
			radius = cal.RadiusKm
		}
		var tasks []probeTask
		for _, d := range p.cfg.Domains {
			for _, scope := range camp.ScopesByDomain[d.Name] {
				if p.scopeAssigned(scope, coord, radius) {
					tasks = append(tasks, probeTask{domain: d.Name, scope: scope})
				}
			}
		}
		assignments[pi] = tasks
	})
	for pi, pop := range popNames {
		if cal, ok := camp.PoPs[pop]; ok {
			cal.Assigned = len(assignments[pi])
		}
	}
	coords := make(map[string]geo.Coord, len(popNames))
	for _, pop := range popNames {
		if c, ok := popCoords[pop]; ok {
			coords[pop] = c
		}
	}
	return &Assignments{popNames: popNames, tasks: assignments, coords: coords}
}

// ProbePassDelta runs one assignment loop (pass) of stage 4, merges its
// results into camp and returns the pass's incremental evidence — what
// the staged pipeline checkpoints instead of the cumulative campaign.
// The pass is the pipeline's checkpoint boundary: a killed run resumes
// at pass k+1. start is the campaign start time (pass windows are
// computed from it, independent of the current clock reading, so a
// resumed process reproduces the original schedule exactly).
//
// The pass runs the two steps of the scatter/gather path (see shard.go)
// back to back in one process, and the N-shard split produces
// byte-identical campaigns. It chains execUnits and foldPass directly:
// each task writes its outcome into the one slot the fold reads, with no
// ShardTaskResult copy in between. It plans the pass once and takes one
// snapshot window around planning, execution and the fold, so its ledger
// delta is the shard deltas plus the gather window of the scatter/gather
// path, with the failover-distance observation counted once. The error
// is always nil; it keeps the signature GatherPass shares.
func (p *Prober) ProbePassDelta(ctx context.Context, pops map[string]*Vantage, asg *Assignments, pass int, start time.Time, camp *Campaign) (*PassDelta, error) {
	passStart, passWindow := p.passSpan(start, pass)
	p.execMu.Lock()
	defer p.execMu.Unlock()

	fBefore := p.cfg.FaultCounters.Snapshot()
	mBefore := p.m.before(camp)
	p.healthSync(camp, passStart)
	plans := p.planPass(pops, asg, camp, pass, passStart)
	var preWindows map[string][]health.WindowSum
	if p.cfg.Health != nil {
		preWindows = p.cfg.Health.ExportWindows()
	}

	// One unit per PoP, each writing straight into that PoP's slots.
	res := make([][]probeResult, len(asg.popNames))
	var units []ShardUnit
	var out [][]probeResult
	for pi, pop := range asg.popNames {
		res[pi] = make([]probeResult, len(asg.tasks[pi]))
		if n := len(asg.tasks[pi]); n > 0 {
			units = append(units, ShardUnit{PoPIndex: pi, PoP: pop, Lo: 0, Hi: n})
			out = append(out, res[pi])
		}
	}
	p.execUnits(ctx, pops, asg, pass, passStart, passWindow, plans, units, out)

	exec := &ShardResult{Pass: pass}
	if p.cfg.Health != nil {
		exec.Windows = health.DiffWindows(p.cfg.Health.ExportWindows(), preWindows)
	}
	return p.foldPass(asg, pass, passStart, passWindow, camp, plans, res, fBefore, mBefore, []*ShardResult{exec}), nil
}

// FinishProbing places the simulated clock at the campaign end, for
// everything downstream that reads "time after the campaign": the staged
// prober never moves the clock mid-run.
func (p *Prober) FinishProbing(start time.Time) {
	p.cfg.Clock.Set(start.Add(p.cfg.Duration))
}

// sortedPoPs returns the PoP names in sorted order — the canonical
// iteration order every stage and merge uses.
func sortedPoPs(pops map[string]*Vantage) []string {
	names := make([]string, 0, len(pops))
	for name := range pops {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
