// Package cacheprobe implements the paper's first technique (§3.1):
// detecting client activity by snooping Google Public DNS caches with
// EDNS0 Client Subnet queries across the IPv4 space.
//
// A campaign runs in four stages, mirroring §3.1.1:
//
//  1. PoP discovery — each cloud vantage point learns which anycast PoP it
//     reaches (o-o.myaddr.l.google.com TXT) and one vantage per PoP is
//     kept.
//  2. Scope pre-scan — the authoritative resolvers are scanned directly to
//     learn the ECS response scope for the whole address space, so the
//     cache probing needs one query per scope instead of one per /24.
//  3. Service-radius calibration — geolocated sample prefixes are probed
//     at every PoP; the 90th-percentile hit distance defines each PoP's
//     service radius (Figure 2).
//  4. Probing — each PoP is probed for the scopes MaxMind places possibly
//     within its radius, with non-recursive TCP queries, redundant copies
//     per cache pool, looping over the assignment for the campaign
//     duration.
package cacheprobe

import (
	"time"

	"clientmap/internal/clockx"
	"clientmap/internal/dnsnet"
	"clientmap/internal/domains"
	"clientmap/internal/geo"
	"clientmap/internal/health"
	"clientmap/internal/metrics"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
)

// Vantage is one cloud vantage point wired to a DNS transport.
type Vantage struct {
	// Name identifies the cloud region (e.g. "aws:eu-west-1").
	Name string
	// Coord is the VM's location.
	Coord geo.Coord
	// Addr is the VM's source address as servers see it.
	Addr netx.Addr
	// Exchanger carries DNS messages (the in-memory simulated transport).
	Exchanger dnsnet.Exchanger
	// Server is the Google Public DNS endpoint name for the exchanger.
	Server string
}

// Authoritative is the direct line to a domain's authoritative resolver
// used by the pre-scan.
type Authoritative struct {
	Exchanger dnsnet.Exchanger
	Server    string
}

// Config parameterizes a campaign. Zero fields take the paper's values.
type Config struct {
	Seed randx.Seed
	// Clock is the campaign's simulated clock (required): probes carry
	// their scheduled time on the context, and nothing ever sleeps.
	Clock *clockx.Sim

	// Domains are the probe domains (the paper's four Alexa picks plus
	// the Microsoft validation domain).
	Domains []domains.Domain

	// Workers is the most goroutines any campaign stage runs: each stage
	// is one pool of this size (0 or less = GOMAXPROCS; 1 = fully
	// sequential, on the calling goroutine). Results are bit-identical for
	// any value — see Prober's concurrency model. The campaign engine
	// above this package leaves it 0, so its pool size is GOMAXPROCS.
	Workers int

	// Redundancy is the number of copies of each probe, to cover the
	// PoP's independent cache pools. Paper: 5. At most maxRedundancy.
	Redundancy int

	// Duration is the campaign length. Paper: 120 hours.
	Duration time.Duration

	// Passes is how many times the assignment loops within Duration; the
	// paper loops continuously, completing a handful of passes.
	Passes int

	// CalibrationSamples is how many geolocated prefixes are probed at
	// every PoP to fit service radii. Paper: 78,637 across public space;
	// scaled worlds use proportionally fewer.
	CalibrationSamples int

	// GeoDB is the MaxMind-style geolocation database.
	GeoDB *geo.DB

	// Universe is the public address space to scan.
	Universe []netx.Prefix

	// Retry is the per-query retry policy. The zero value is a single
	// try — the paper's behaviour, where timeouts count as misses.
	Retry Retry

	// Health, when set, is the degradation layer's breaker tracker (the
	// same tracker whose breaker wrappers decorate the vantage
	// exchangers). The prober synchronizes it with the checkpointed
	// campaign at stage boundaries, consults its failover planner at
	// pass starts, and hedges slow tries per its policy. Nil disables
	// graceful degradation.
	Health *health.Tracker

	// Metrics, when set, receives the campaign's instrumentation under
	// "cacheprobe/…": per-stage probe counts, cache hit/miss outcomes,
	// retry spend, and per-PoP retry-latency histograms. The fault
	// injectors wrapping the transports count into it under "faults/…".
	// Each stage folds its snapshot delta over LedgerPrefixes into
	// Campaign.Metrics. Nil discards.
	Metrics *metrics.Registry
	// Trace, when set, receives structured per-stage/per-PoP spans with
	// sim-clock timestamps. Nil discards.
	Trace *metrics.Trace
}

// maxRedundancy bounds Config.Redundancy. With Retry.Attempts at most
// maxAttempts, a task fires at most maxAttempts × maxRedundancy = 64,512
// hedges, which fits probeResult's 16-bit counters.
const maxRedundancy = 63

func (c Config) withDefaults() Config {
	if c.Redundancy <= 0 {
		c.Redundancy = 5
	}
	if c.Duration <= 0 {
		c.Duration = 120 * time.Hour
	}
	if c.Passes <= 0 {
		c.Passes = 6
	}
	if c.CalibrationSamples <= 0 {
		c.CalibrationSamples = 2000
	}
	return c
}

// Hit records the evidence for one active prefix.
type Hit struct {
	// RespScope is the ECS scope the cache returned; the activity claim
	// is at this granularity.
	RespScope netx.Prefix
	// QueryScope is the scope the probe asked about (from the pre-scan).
	QueryScope netx.Prefix
	// PoP is the site that answered.
	PoP string
	// Domain that hit.
	Domain string
	// Count is how many probes hit.
	Count int
	// PassMask has bit k set if pass k hit — the across-campaign temporal
	// fingerprint the activity extension ranks and classifies with.
	PassMask uint64
	// Times are the (simulated) timestamps of the hits.
	Times []time.Time
}

// PoPCalibration is the per-PoP result of stage 3.
type PoPCalibration struct {
	PoP      string
	Vantage  string
	RadiusKm float64
	// HitDistancesKm are the calibration hit distances (Figure 2's CDF).
	HitDistancesKm []float64
	// Assigned is how many scopes stage 4 probed at this PoP.
	Assigned int
}

// Campaign is the full result of a run.
type Campaign struct {
	// PoPs maps PoP name → calibration and assignment info.
	PoPs map[string]*PoPCalibration
	// ScopesByDomain is the pre-scan output: the query scopes covering
	// the universe, per domain.
	ScopesByDomain map[string][]netx.Prefix
	// Hits maps domain → response-scope prefix → hit evidence.
	Hits map[string]map[netx.Prefix]*Hit
	// ScopeDiffs maps domain → |query bits - response bits| → hit count
	// (Table 2).
	ScopeDiffs map[string]map[int]int
	// PoPHits counts distinct hit prefixes per PoP (Figure 1).
	PoPHits map[string]int
	// Passes is how many assignment loops ran, and PassTimes their start
	// times (for temporal analysis of PassMask bits).
	Passes    int
	PassTimes []time.Time
	// ProbesSent counts cache probes issued in stage 4 (retried wire
	// queries included).
	ProbesSent int
	// PreScanQueries counts authoritative queries issued in stage 2
	// (retried wire queries included).
	PreScanQueries int
	// Metrics is the campaign's instrumentation and reliability ledger:
	// the per-stage snapshot deltas of the metrics registry
	// (Config.Metrics), injected faults, retry spend and hedge outcomes
	// included. It is part of the checkpointed artifact, and every value
	// is an order-independent sum, so the ledger is bit-identical across
	// worker counts and kill/resume. Empty when no registry is wired.
	Metrics metrics.Ledger
	// Health is the degradation layer's ledger: breaker window sums and
	// transitions, failovers and the per-pass coverage accounting.
	// Checkpointed with the campaign, so a resumed run replays breaker
	// state — and reports coverage — exactly as an uninterrupted one.
	// Zero when Config.Health is nil.
	Health health.Ledger
}

// NewCampaign returns an empty campaign with every collection
// initialized, ready for the stages (PreScan, Calibrate, ProbePassDelta) to
// fill incrementally. The staged pipeline checkpoints this value between
// stages; a decoded checkpoint and a freshly filled campaign are
// indistinguishable to the stages that consume them.
func NewCampaign() *Campaign {
	return &Campaign{
		PoPs:           make(map[string]*PoPCalibration),
		ScopesByDomain: make(map[string][]netx.Prefix),
		Hits:           make(map[string]map[netx.Prefix]*Hit),
		ScopeDiffs:     make(map[string]map[int]int),
		PoPHits:        make(map[string]int),
		Metrics:        metrics.Ledger{},
	}
}

// ActiveScopes returns the deduplicated set of response-scope prefixes
// with hits across all domains (scope 0 excluded by construction).
func (c *Campaign) ActiveScopes() []netx.Prefix {
	seen := make(map[netx.Prefix]bool)
	var out []netx.Prefix
	for _, hits := range c.Hits {
		for p := range hits {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// Upper24s expands every hit scope into its /24s: the upper bound on
// active /24 prefixes used in Table 1 and Figure 4 ("if a prefix contains
// clients, assume all /24s within it do").
func (c *Campaign) Upper24s() *netx.Set24 {
	s := &netx.Set24{}
	for _, p := range c.ActiveScopes() {
		s.AddPrefix(p)
	}
	return s
}
