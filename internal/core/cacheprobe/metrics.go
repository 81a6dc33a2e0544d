package cacheprobe

import (
	"fmt"

	"clientmap/internal/metrics"
)

// LedgerPrefixes are the registry key spaces the campaign chain owns:
// only these fold into Campaign.Metrics. Other chains (the DITL crawl,
// the baseline collections) run concurrently with the campaign stages,
// so an unrestricted snapshot delta could absorb their increments and
// make the folded ledger schedule-dependent. The campaign chain is the
// sole user of the probing transports and the Google front end while it
// runs, which is what makes these prefixes safe to fold. Live breaker
// gauges sit under "live/health/…", deliberately outside the fold: a
// gauge's value depends on when it is scraped, not only on what happened.
var LedgerPrefixes = []string{"cacheprobe/", "dnsnet/", "gpdns/", "health/"}

// retryDelayBounds is the fixed bucket layout of the per-PoP
// retry-latency histograms, in milliseconds of accumulated
// backoff-plus-jitter per logical query.
var retryDelayBounds = []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000}

// failoverDistBounds is the bucket layout of the failover-distance
// histogram, in km from the task's scope to the fallback PoP.
var failoverDistBounds = []int64{500, 1000, 2000, 4000, 8000, 16000}

// proberMetrics is the prober's resolved handle set — resolved once at
// construction so the hot paths never touch the registry mutex. All
// handles are nil (discarding) when no registry is wired.
type proberMetrics struct {
	reg *metrics.Registry

	prescanQueries *metrics.Counter
	prescanScopes  *metrics.Counter
	calProbes      *metrics.Counter
	calHits        *metrics.Counter
	probeProbes    *metrics.Counter
	probeHits      *metrics.Counter
	probeMisses    *metrics.Counter
	retrySpent     *metrics.Counter
	retryRecovered *metrics.Counter
	retryExhausted *metrics.Counter

	hedgeFired        *metrics.Counter
	hedgeWon          *metrics.Counter
	breakerOpened     *metrics.Counter
	breakerHalfOpened *metrics.Counter
	breakerClosed     *metrics.Counter
	failoverVantage   *metrics.Counter
	failoverPoP       *metrics.Counter
	failoverLost      *metrics.Counter
	failoverDist      *metrics.Histogram
}

func newProberMetrics(reg *metrics.Registry) proberMetrics {
	return proberMetrics{
		reg:            reg,
		prescanQueries: reg.Counter("cacheprobe/prescan/queries"),
		prescanScopes:  reg.Counter("cacheprobe/prescan/scopes"),
		calProbes:      reg.Counter("cacheprobe/calibrate/probes"),
		calHits:        reg.Counter("cacheprobe/calibrate/hits"),
		probeProbes:    reg.Counter("cacheprobe/probe/probes"),
		probeHits:      reg.Counter("cacheprobe/probe/hits"),
		probeMisses:    reg.Counter("cacheprobe/probe/misses"),
		retrySpent:     reg.Counter("cacheprobe/retry/spent"),
		retryRecovered: reg.Counter("cacheprobe/retry/recovered"),
		retryExhausted: reg.Counter("cacheprobe/retry/exhausted"),

		hedgeFired:        reg.Counter("health/hedge/fired"),
		hedgeWon:          reg.Counter("health/hedge/won"),
		breakerOpened:     reg.Counter("health/breaker/opened"),
		breakerHalfOpened: reg.Counter("health/breaker/half_opened"),
		breakerClosed:     reg.Counter("health/breaker/closed"),
		failoverVantage:   reg.Counter("health/failover/vantage_tasks"),
		failoverPoP:       reg.Counter("health/failover/pop_tasks"),
		failoverLost:      reg.Counter("health/failover/lost_tasks"),
		failoverDist:      reg.Histogram("health/failover/distance_km", failoverDistBounds),
	}
}

// popProbes/popHits/popDelay resolve the per-PoP handles. Called once per
// (stage, PoP), outside the task loops.
func (m *proberMetrics) popProbes(pop string) *metrics.Counter {
	return m.reg.Counter("cacheprobe/pop/" + pop + "/probes")
}

func (m *proberMetrics) popHits(pop string) *metrics.Counter {
	return m.reg.Counter("cacheprobe/pop/" + pop + "/hits")
}

func (m *proberMetrics) popDelay(pop string) *metrics.Histogram {
	return m.reg.Histogram("cacheprobe/pop/"+pop+"/retry_delay_ms", retryDelayBounds)
}

func (m *proberMetrics) passProbes(pass int) *metrics.Counter {
	return m.reg.Counter(fmt.Sprintf("cacheprobe/pass/%d/probes", pass))
}

func (m *proberMetrics) passHits(pass int) *metrics.Counter {
	return m.reg.Counter(fmt.Sprintf("cacheprobe/pass/%d/hits", pass))
}

// countRetries mirrors a task's retry account into the registry. Called
// on the sequential merge path, next to Campaign.Faults.addRetries.
func (m *proberMetrics) countRetries(a *retryAccount) {
	m.retrySpent.Add(int64(a.spent))
	m.retryRecovered.Add(int64(a.recovered))
	m.retryExhausted.Add(int64(a.exhausted))
}

// countHedges mirrors a task's hedge outcomes into the registry, on the
// same sequential merge path.
func (m *proberMetrics) countHedges(a *retryAccount) {
	m.hedgeFired.Add(int64(a.hedgeFired))
	m.hedgeWon.Add(int64(a.hedgeWon))
}

// before takes a stage's before-snapshot of the campaign-owned prefixes,
// first reserving the keys camp's ledger carries: a delta keeps zero
// keys, so without them a process that restored upstream checkpoints
// would checkpoint different bytes than one that built them.
func (m *proberMetrics) before(camp *Campaign) metrics.Ledger {
	m.reg.Reserve(camp.Metrics)
	return m.reg.SnapshotPrefix(LedgerPrefixes...)
}

// stageMetrics snapshots the campaign-owned registry prefixes and returns
// a closure that folds the delta — what this stage's instrumentation
// counted — into the campaign's metrics ledger. Same shape and rationale
// as stageFaults: the checkpointed campaign is the source of truth, so a
// resumed run reports the same ledger as an uninterrupted one even
// though the in-process registry resets on restart.
func (p *Prober) stageMetrics(camp *Campaign) func() {
	before := p.m.before(camp)
	return func() {
		camp.Metrics.Merge(p.m.reg.SnapshotPrefix(LedgerPrefixes...).Sub(before))
	}
}
