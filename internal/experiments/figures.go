package experiments

import (
	"sort"

	"clientmap/internal/analysis"
	"clientmap/internal/netx"
)

// Figure1Entry is one probed PoP's active-prefix density (the map's dots).
type Figure1Entry struct {
	PoP      string
	Hits     int
	RadiusKm float64
}

// Figure1 returns per-PoP counts of distinct active prefixes, plus the
// per-country expansion of active /24s (the map's geographic density).
func (r *Results) Figure1() (pops []Figure1Entry, countryActive map[string]int) {
	for pop, n := range r.Campaign.PoPHits {
		e := Figure1Entry{PoP: pop, Hits: n}
		if cal, ok := r.Campaign.PoPs[pop]; ok {
			e.RadiusKm = cal.RadiusKm
		}
		pops = append(pops, e)
	}
	sort.Slice(pops, func(i, j int) bool { return pops[i].PoP < pops[j].PoP })

	countryActive = make(map[string]int)
	db := r.Sys.World.GeoDB()
	r.Campaign.Upper24s().Range(func(p netx.Slash24) bool {
		if loc, ok := db.Lookup(p); ok {
			countryActive[loc.Country]++
		}
		return true
	})
	return pops, countryActive
}

// Figure2 returns the calibration hit-distance CDF for the requested PoPs
// (the paper shows Groningen, The Dalles and Charleston) along with the
// fitted service radius.
func (r *Results) Figure2(popNames ...string) map[string]struct {
	CDF      *analysis.CDF
	RadiusKm float64
} {
	if len(popNames) == 0 {
		popNames = []string{"grq", "dls", "chs"}
	}
	out := make(map[string]struct {
		CDF      *analysis.CDF
		RadiusKm float64
	})
	for _, name := range popNames {
		cal, ok := r.Campaign.PoPs[name]
		if !ok {
			continue
		}
		out[name] = struct {
			CDF      *analysis.CDF
			RadiusKm float64
		}{analysis.NewCDF(cal.HitDistancesKm), cal.RadiusKm}
	}
	return out
}

// Figure3 returns per-country coverage: the fraction of each country's
// APNIC-estimated users in ASes where cache probing detected activity.
func (r *Results) Figure3() []analysis.CountryCoverage {
	return analysis.CountryCoverageByAS(
		r.APNIC.Users,
		r.asCountry(),
		func(asn uint32) bool { return r.ASCacheProbe.Has(asn) },
	)
}

// Figure4 returns the per-AS active-fraction bounds and the two CDFs the
// figure plots (lower and upper bound fractions across ASes).
func (r *Results) Figure4() (bounds []analysis.ASBounds, lower, upper *analysis.CDF) {
	bounds = analysis.ASActiveFractions(r.Campaign.ActiveScopes(), r.RV)
	lo := make([]float64, 0, len(bounds))
	hi := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		lo = append(lo, b.LowerFrac())
		hi = append(hi, b.UpperFrac())
	}
	return bounds, analysis.NewCDF(lo), analysis.NewCDF(hi)
}

// PoPClass is Figure 5's three-way classification.
type PoPClass string

// Figure 5 classes.
const (
	PoPProbedVerified     PoPClass = "probed and verified"
	PoPUnprobedVerified   PoPClass = "unprobed and verified"
	PoPUnprobedUnverified PoPClass = "unprobed and unverified"
)

// Figure5 classifies every cataloged PoP: probed if the campaign reached
// it, verified if its resolver egress shows up in the Microsoft resolvers
// dataset.
func (r *Results) Figure5() map[string]PoPClass {
	out := make(map[string]PoPClass)
	for i, pop := range r.Sys.Router.PoPs() {
		_, probed := r.Campaign.PoPs[pop.Name]
		egress := r.Sys.World.GoogleEgress(i)
		_, verified := r.CDN.Resolvers.ClientIPs[egress]
		switch {
		case probed && verified:
			out[pop.Name] = PoPProbedVerified
		case verified:
			out[pop.Name] = PoPUnprobedVerified
		default:
			out[pop.Name] = PoPUnprobedUnverified
		}
	}
	return out
}

// Figure6 returns the relative-volume CDFs for the three volume-bearing
// methods the paper compares: DNS logs, Microsoft resolvers, and APNIC.
func (r *Results) Figure6() map[string]*analysis.CDF {
	return map[string]*analysis.CDF{
		NameDNSLogs:     analysis.RelativeVolumeCDF(r.ASDNSLogs),
		NameMSResolvers: analysis.RelativeVolumeCDF(r.ASMSResolvers),
		NameAPNIC:       analysis.RelativeVolumeCDF(r.ASAPNIC),
	}
}

// Figure7 returns the pairwise relative-volume difference distributions.
func (r *Results) Figure7() map[string]*analysis.CDF {
	return map[string]*analysis.CDF{
		"MS resolvers - APNIC":    analysis.NewCDF(analysis.PairwiseVolumeDiffs(r.ASMSResolvers, r.ASAPNIC)),
		"MS resolvers - DNS logs": analysis.NewCDF(analysis.PairwiseVolumeDiffs(r.ASMSResolvers, r.ASDNSLogs)),
		"APNIC - DNS logs":        analysis.NewCDF(analysis.PairwiseVolumeDiffs(r.ASAPNIC, r.ASDNSLogs)),
	}
}
