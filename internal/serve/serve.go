// Package serve is the read path of the client-activity map: everything
// else in this module *produces* the map (campaigns, DITL crawls, dataset
// views), and this package answers queries against it at production rates.
//
// The serving pipeline is
//
//	campaign/dataset artifacts ──Build──▶ ClientMap (snapshot on disk)
//	      ClientMap ──NewIndex──▶ Index (immutable, query-ready)
//	      Index ──Store.LoadFile──▶ the daemon's atomically published view
//
// A ClientMap is the interchange artifact: a compact, versioned snapshot
// (internal/snapshot container) holding the active scopes with their
// evidence, the AS aggregate, the announced prefix→AS mapping and the
// world-model client-traffic weights the load generator replays. An Index
// compiles one ClientMap into immutable lookup structures — a
// longest-prefix-match trie over hit scopes, a /24 membership bitmap, a
// flat AS table — that are never mutated after construction, so any
// number of goroutines query them without locks. Hot reload builds a
// fresh Index off to the side and publishes it with one atomic pointer
// swap; in-flight queries keep the Index they started with, which is what
// makes every response consistent with exactly one artifact generation.
package serve

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/netx"
	"clientmap/internal/routeviews"
	"clientmap/internal/snapshot"
)

// PoPEvidence is one PoP's contribution to a scope's activity claim.
type PoPEvidence struct {
	// PoP is the site whose cache held the entry.
	PoP string
	// Hits is how many probes hit at this PoP.
	Hits int
}

// ScopeEvidence is the serving view of one active scope prefix: the
// aggregated evidence across probe domains and PoPs.
type ScopeEvidence struct {
	// Scope is the ECS response scope the activity claim covers.
	Scope netx.Prefix
	// Hits is the total probe hits across domains and PoPs.
	Hits int
	// PassMask has bit k set if campaign pass k produced a hit.
	PassMask uint64
	// PoPs lists the corroborating sites, sorted by name.
	PoPs []PoPEvidence
	// Domains counts the distinct probe domains that hit.
	Domains int
	// Confidence is the Laplace-smoothed fraction of campaign passes with
	// a hit: (passesHit + 1) / (passes + 2). A scope seen in every pass of
	// a long campaign approaches 1; a single-pass flash stays near 1/2 of
	// the single-pass ceiling. Deterministic, and monotone in temporal
	// consistency — the property the paper's activity extension ranks by.
	Confidence float64
}

// ASEvidence is the AS-granularity aggregate of the map.
type ASEvidence struct {
	ASN uint32
	// Active24s counts announced /24s of this AS inside active scopes.
	Active24s int
	// Announced24s is the AS's announced /24 footprint.
	Announced24s int
	// Confidence is the maximum scope confidence observed over the AS's
	// active /24s.
	Confidence float64
}

// Origin maps one announced prefix to its origin ASN — the BGP table the
// daemon answers "which AS is this" from.
type Origin struct {
	Prefix netx.Prefix
	ASN    uint32
}

// TrafficBin is one /24's share of world-model client traffic; the load
// generator replays queries proportional to these weights.
type TrafficBin struct {
	Slash24 netx.Slash24
	Weight  float64
}

// Meta identifies the campaign a ClientMap was compiled from.
type Meta struct {
	// Seed and Scale name the world the campaign measured.
	Seed  uint64
	Scale string
	// Passes is the campaign pass count (the confidence denominator).
	Passes int
	// BuiltAt is the (simulated) instant the map was compiled.
	BuiltAt time.Time
	// Source describes the producing configuration, for operators.
	Source string
}

// ClientMap is the serving artifact: the compiled client-activity map a
// clientmapd instance loads, plus the traffic weights its load generator
// replays. All slices are sorted (scopes and origins by (addr, bits),
// ASes by ASN, traffic by /24, PoPs by name), so a given map always
// encodes to the same snapshot bytes.
type ClientMap struct {
	Meta    Meta
	Scopes  []ScopeEvidence
	ASes    []ASEvidence
	Origins []Origin
	Traffic []TrafficBin
}

// BuildInput is everything Build compiles a ClientMap from.
type BuildInput struct {
	Meta     Meta
	Campaign *cacheprobe.Campaign
	// RV is the announced-space table; nil produces a map without AS
	// evidence or origins (prefix-only serving).
	RV *routeviews.Table
	// ClientVolume carries world-model per-/24 client traffic (the CDN
	// clients view); nil falls back to uniform weight over active /24s.
	ClientVolume map[netx.Slash24]float64
}

// Build compiles the serving artifact from a finished campaign. The
// aggregation is deterministic: maps are folded in sorted key order and
// every output slice is sorted, so two builds from the same campaign are
// byte-identical once encoded.
func Build(in BuildInput) *ClientMap {
	if in.Meta.Passes <= 0 && in.Campaign != nil {
		in.Meta.Passes = in.Campaign.Passes
	}
	var scopes []ScopeEvidence
	if in.Campaign != nil {
		scopes = buildScopes(in.Campaign, in.Meta.Passes)
	}
	return Assemble(in.Meta, scopes, in.RV, in.ClientVolume)
}

// Assemble compiles a serving artifact from an already-aggregated scope
// list: the shared back half of Build, exported for producers whose
// evidence does not live in a cacheprobe.Campaign — the streaming mode
// folds its decay ledger into ScopeEvidence rows and assembles a rolling
// map every emitted hour. The scopes slice must be sorted by scope
// prefix with per-entry invariants satisfying Validate; Assemble derives
// the AS evidence, origins and traffic weights from it the same way
// Build does.
func Assemble(meta Meta, scopes []ScopeEvidence, rv *routeviews.Table, volume map[netx.Slash24]float64) *ClientMap {
	cm := &ClientMap{Meta: meta, Scopes: scopes}
	if rv != nil {
		cm.Origins = buildOrigins(rv)
		cm.ASes = buildASes(cm.Scopes, rv)
	}
	cm.Traffic = buildTraffic(cm.Scopes, volume)
	return cm
}

// buildScopes folds Campaign.Hits (domain → scope → evidence) into one
// sorted entry per distinct scope.
func buildScopes(camp *cacheprobe.Campaign, passes int) []ScopeEvidence {
	agg := make(map[netx.Prefix]*ScopeEvidence)
	pops := make(map[netx.Prefix]map[string]int)
	for _, domain := range snapshot.SortedKeys(camp.Hits) {
		hits := camp.Hits[domain]
		for _, p := range snapshot.SortedKeysFunc(hits, netx.Prefix.Compare) {
			h := hits[p]
			e := agg[p]
			if e == nil {
				e = &ScopeEvidence{Scope: p}
				agg[p] = e
				pops[p] = make(map[string]int)
			}
			e.Hits += h.Count
			e.PassMask |= h.PassMask
			e.Domains++
			if h.PoP != "" {
				pops[p][h.PoP] += h.Count
			}
		}
	}

	out := make([]ScopeEvidence, 0, len(agg))
	for p, e := range agg {
		names := snapshot.SortedKeys(pops[p])
		e.PoPs = make([]PoPEvidence, 0, len(names))
		for _, name := range names {
			e.PoPs = append(e.PoPs, PoPEvidence{PoP: name, Hits: pops[p][name]})
		}
		e.Confidence = Confidence(e.PassMask, passes)
		out = append(out, *e)
	}
	slices.SortFunc(out, func(a, b ScopeEvidence) int { return a.Scope.Compare(b.Scope) })
	return out
}

// Confidence is the Laplace-smoothed hit-pass fraction described on
// ScopeEvidence.Confidence. Exported so consumers (and tests) derive the
// same number from raw evidence.
func Confidence(passMask uint64, passes int) float64 {
	if passes <= 0 {
		passes = 1
	}
	hit := bits.OnesCount64(passMask)
	if hit > passes {
		hit = passes
	}
	return float64(hit+1) / float64(passes+2)
}

func buildOrigins(rv *routeviews.Table) []Origin {
	out := make([]Origin, 0, rv.Len())
	rv.Walk(func(p netx.Prefix, asn uint32) bool {
		out = append(out, Origin{Prefix: p, ASN: asn})
		return true
	})
	// Walk is already in (addr, least-specific-first) order; keep the
	// explicit sort as the canonical-form guarantee the codec relies on.
	slices.SortFunc(out, func(a, b Origin) int { return a.Prefix.Compare(b.Prefix) })
	return out
}

// buildASes aggregates active /24s per origin AS over the scope set.
func buildASes(scopes []ScopeEvidence, rv *routeviews.Table) []ASEvidence {
	agg := make(map[uint32]*ASEvidence)
	covered := &netx.Set24{}
	for _, e := range scopes {
		e := e
		e.Scope.Slash24s(func(p netx.Slash24) bool {
			if !covered.Add(p) {
				return true // a more specific scope already counted it
			}
			asn, ok := rv.ASNOf(p.Addr())
			if !ok {
				return true
			}
			a := agg[asn]
			if a == nil {
				a = &ASEvidence{ASN: asn, Announced24s: rv.Announced24s(asn)}
				agg[asn] = a
			}
			a.Active24s++
			if e.Confidence > a.Confidence {
				a.Confidence = e.Confidence
			}
			return true
		})
	}
	out := make([]ASEvidence, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// buildTraffic derives the load-replay weights: the world-model client
// volume where available, else uniform weight over the active /24s.
func buildTraffic(scopes []ScopeEvidence, volume map[netx.Slash24]float64) []TrafficBin {
	out := make([]TrafficBin, 0, len(volume))
	if len(volume) > 0 {
		for _, p := range snapshot.SortedKeys(volume) {
			if v := volume[p]; v > 0 {
				out = append(out, TrafficBin{Slash24: p, Weight: v})
			}
		}
		return out
	}
	seen := &netx.Set24{}
	for _, e := range scopes {
		e.Scope.Slash24s(func(p netx.Slash24) bool {
			seen.Add(p)
			return true
		})
	}
	seen.Range(func(p netx.Slash24) bool {
		out = append(out, TrafficBin{Slash24: p, Weight: 1})
		return true
	})
	return out
}

// Validate checks the structural invariants a decoded or built map must
// hold before it is compiled into an Index: sorted unique scopes, origins
// and ASes, non-negative counts, confidences within (0, 1).
func (cm *ClientMap) Validate() error {
	for i, e := range cm.Scopes {
		if i > 0 && cm.Scopes[i-1].Scope.Compare(e.Scope) >= 0 {
			return fmt.Errorf("serve: scopes out of order at %d (%s)", i, e.Scope)
		}
		if e.Hits < 0 || e.Domains < 0 {
			return fmt.Errorf("serve: negative counts for scope %s", e.Scope)
		}
		if e.Confidence <= 0 || e.Confidence >= 1 {
			return fmt.Errorf("serve: confidence %v out of range for scope %s", e.Confidence, e.Scope)
		}
	}
	for i, o := range cm.Origins {
		if i > 0 && cm.Origins[i-1].Prefix.Compare(o.Prefix) >= 0 {
			return fmt.Errorf("serve: origins out of order at %d (%s)", i, o.Prefix)
		}
	}
	for i, a := range cm.ASes {
		if i > 0 && cm.ASes[i-1].ASN >= a.ASN {
			return fmt.Errorf("serve: ASes out of order at %d (AS%d)", i, a.ASN)
		}
		if a.Active24s < 0 || a.Announced24s < 0 {
			return fmt.Errorf("serve: negative /24 counts for AS%d", a.ASN)
		}
	}
	var prev netx.Slash24
	for i, b := range cm.Traffic {
		if i > 0 && b.Slash24 <= prev {
			return fmt.Errorf("serve: traffic bins out of order at %d", i)
		}
		if b.Weight < 0 {
			return fmt.Errorf("serve: negative traffic weight at %d", i)
		}
		prev = b.Slash24
	}
	return nil
}
