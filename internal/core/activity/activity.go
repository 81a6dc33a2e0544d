// Package activity implements the paper's future-work roadmap (§6): going
// from lists of active client prefixes to *relative activity levels*, and
// from "contains clients" to "likely contains (human) users".
//
// Two estimators are provided:
//
//   - Ranking joins the two techniques the way §6 proposes: DNS-logs
//     volume is a per-resolver signal, and "users are often physically
//     close to and in the same AS as their recursive resolver", so the
//     volume is attributed to the resolver's ⟨country, AS⟩ group and
//     spread over the cache-probing-active prefixes of that group,
//     weighted by each prefix's cache hit rate across campaign passes
//     (warmth is monotone in client query rate).
//
//   - DiurnalScore classifies prefixes as human-like or machine-like from
//     the temporal fingerprint of their cache hits: human activity follows
//     the local day-night cycle, so hits concentrated in local evening
//     passes suggest users, while flat hit patterns suggest bots — §6's
//     "patterns over time (e.g., diurnal patterns)" signal.
package activity

import (
	"sort"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/core/dnslogs"
	"clientmap/internal/geo"
	"clientmap/internal/netx"
	"clientmap/internal/routeviews"
	"clientmap/internal/traffic"
)

// groupKey is the ⟨country, AS⟩ join granularity of §6.
type groupKey struct {
	country string
	asn     uint32
}

// PrefixEstimate is one ranked prefix.
type PrefixEstimate struct {
	// Prefix is the hit scope the estimate applies to.
	Prefix netx.Prefix
	// ASN and Country locate the ⟨region, AS⟩ group.
	ASN     uint32
	Country string
	// Activity is the estimated relative activity (arbitrary units,
	// comparable across prefixes of one ranking).
	Activity float64
	// Warmth is the fraction of campaign passes that hit the prefix.
	Warmth float64
}

// Estimator combines campaign and crawl results.
type Estimator struct {
	camp  *cacheprobe.Campaign
	crawl *dnslogs.Result
	rv    *routeviews.Table
	geo   *geo.DB
}

// NewEstimator builds the §6 estimator from both techniques' outputs.
func NewEstimator(camp *cacheprobe.Campaign, crawl *dnslogs.Result, rv *routeviews.Table, db *geo.DB) *Estimator {
	return &Estimator{camp: camp, crawl: crawl, rv: rv, geo: db}
}

// locate returns the ⟨country, AS⟩ group of a prefix via the geolocation
// database and prefix2as table.
func (e *Estimator) locate(p netx.Prefix) (groupKey, bool) {
	asn, ok := e.rv.ASNOfPrefix(p)
	if !ok {
		if asn, ok = e.rv.ASNOf(p.Addr()); !ok {
			return groupKey{}, false
		}
	}
	loc, ok := e.geo.Lookup(p.FirstSlash24())
	if !ok {
		// Coarse scopes may start on an unallocated /24; scan for any
		// geolocated member.
		found := false
		p.Slash24s(func(s netx.Slash24) bool {
			if l, ok2 := e.geo.Lookup(s); ok2 {
				loc, found = l, true
				return false
			}
			return true
		})
		if !found {
			return groupKey{}, false
		}
	}
	return groupKey{country: loc.Country, asn: asn}, true
}

// hitInfo is one active scope with its warmth.
type hitInfo struct {
	prefix netx.Prefix
	warmth float64
	group  groupKey
}

// activeScopes deduplicates hit scopes across domains, keeping the highest
// pass-hit count per scope.
func (e *Estimator) activeScopes() []hitInfo {
	passes := e.camp.Passes
	if passes <= 0 {
		passes = 1
	}
	best := make(map[netx.Prefix]int)
	for _, hits := range e.camp.Hits {
		for p, h := range hits {
			if n := popcount(h.PassMask); n > best[p] {
				best[p] = n
			}
		}
	}
	out := make([]hitInfo, 0, len(best))
	for p, n := range best {
		group, ok := e.locate(p)
		if !ok {
			continue
		}
		out = append(out, hitInfo{
			prefix: p,
			warmth: float64(n) / float64(passes),
			group:  group,
		})
	}
	return out
}

func popcount(m uint64) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Ranking produces relative activity estimates for every active prefix,
// descending by activity. Prefixes whose ⟨country, AS⟩ group has no
// DNS-logs volume still appear, ranked by warmth alone at the bottom of
// the volume scale.
func (e *Estimator) Ranking() []PrefixEstimate {
	// Aggregate DNS-logs volume per ⟨country, AS⟩ via resolver locations.
	groupVolume := make(map[groupKey]float64)
	var totalVolume float64
	for addr, count := range e.crawl.ResolverCounts {
		group, ok := e.locate(netx.PrefixFrom(addr, 24))
		if !ok {
			continue
		}
		groupVolume[group] += count
		totalVolume += count
	}

	scopes := e.activeScopes()
	// Sum warmth per group to distribute volume proportionally.
	groupWarmth := make(map[groupKey]float64)
	for _, h := range scopes {
		groupWarmth[h.group] += h.warmth
	}

	// The floor activity unit for groups without resolver volume: below
	// any volume-backed estimate, ordered by warmth.
	floorUnit := 1.0
	if totalVolume > 0 {
		floorUnit = 1e-6 * totalVolume
	}

	out := make([]PrefixEstimate, 0, len(scopes))
	for _, h := range scopes {
		est := PrefixEstimate{
			Prefix:  h.prefix,
			ASN:     h.group.asn,
			Country: h.group.country,
			Warmth:  h.warmth,
		}
		if vol := groupVolume[h.group]; vol > 0 && groupWarmth[h.group] > 0 {
			est.Activity = vol * h.warmth / groupWarmth[h.group]
		} else {
			est.Activity = floorUnit * h.warmth
		}
		out = append(out, est)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Activity != out[j].Activity {
			return out[i].Activity > out[j].Activity
		}
		return out[i].Prefix.Addr() < out[j].Prefix.Addr()
	})
	return out
}

// DiurnalScore measures how strongly a hit's temporal pattern follows the
// local day-night cycle: the mean expected diurnal factor at the hit
// times, normalized against the cycle's daily mean (0.84). Scores well
// above 1 mean hits cluster in local busy hours (human-like); scores near
// or below 1 mean the prefix is warm around the clock or active at odd
// hours (machine-like, or simply saturated).
func (e *Estimator) DiurnalScore(h *cacheprobe.Hit) (float64, bool) {
	if len(h.Times) == 0 {
		return 0, false
	}
	loc, ok := e.geo.Lookup(h.RespScope.FirstSlash24())
	if !ok {
		return 0, false
	}
	var sum float64
	for _, t := range h.Times {
		sum += traffic.Diurnal(t, loc.Coord.Lon)
	}
	return (sum / float64(len(h.Times))) / 0.84, true
}

// HumanLikelihood classifies every hit scope: scopes whose hits track the
// local diurnal cycle AND are not trivially saturated score as human.
// It returns per-scope scores (higher = more human-like).
func (e *Estimator) HumanLikelihood() map[netx.Prefix]float64 {
	out := make(map[netx.Prefix]float64)
	for _, hits := range e.camp.Hits {
		for p, h := range hits {
			score, ok := e.DiurnalScore(h)
			if !ok {
				continue
			}
			if prev, seen := out[p]; !seen || score > prev {
				out[p] = score
			}
		}
	}
	return out
}
