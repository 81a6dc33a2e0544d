package cacheprobe

import (
	"slices"

	"clientmap/internal/geo"
	"clientmap/internal/netx"
)

// scopeGeo is a plan's scope-geography table: every distinct pre-scanned
// scope, sorted, with the geolocated /24s it is sampled at. It is built
// once per campaign and read by every PoP's assignment and by the
// failover planner, so no scope is geolocated again per PoP, per domain
// or per failover. Scopes of different domains overlap, so each sampled /24 is
// held once, as a site, and a PoP decides each site once.
type scopeGeo struct {
	scopes []netx.Prefix
	// Scope i's sites, in sampling order, are sites[k] for k in
	// refs[off[i]:off[i+1]].
	off, refs []int32
	sites     []site
}

// site is one placed /24's position and error radius: all of its
// geo.Location that PossiblyWithin reads.
type site struct {
	coord geo.Coord
	errKm float64
}

// possiblyWithin is geo.Location.PossiblyWithin for the site.
func (s site) possiblyWithin(center geo.Coord, radiusKm float64) bool {
	return geo.Location{Coord: s.coord, ErrorKm: s.errKm}.PossiblyWithin(center, radiusKm)
}

// maxScopeSamples bounds how many of a large scope's /24s are sampled.
const maxScopeSamples = 8

// newScopeGeo builds the table over the pre-scanned scopes of every
// catalog domain. A scope is sampled at its /24s, at a stride that
// takes at most maxScopeSamples of them, keeping those the geo
// database places.
func (p *Prober) newScopeGeo(camp *Campaign) *scopeGeo {
	var scopes []netx.Prefix
	for _, d := range p.cfg.Domains {
		scopes = append(scopes, camp.ScopesByDomain[d.Name]...)
	}
	slices.SortFunc(scopes, netx.Prefix.Compare)
	scopes = slices.Clone(slices.Compact(scopes))
	g := &scopeGeo{scopes: scopes, off: make([]int32, len(scopes)+1)}
	siteOf := make(map[netx.Slash24]int32) // -1: not placed
	for i, scope := range scopes {
		n := scope.NumSlash24s()
		stride := max(1, n/maxScopeSamples)
		first := uint32(scope.FirstSlash24())
		for j := 0; j < n; j += stride {
			s24 := netx.Slash24(first + uint32(j))
			k, seen := siteOf[s24]
			if !seen {
				k = -1
				if loc, ok := p.cfg.GeoDB.Lookup(s24); ok {
					k = int32(len(g.sites))
					g.sites = append(g.sites, site{coord: loc.Coord, errKm: loc.ErrorKm})
				}
				siteOf[s24] = k
			}
			if k >= 0 {
				g.refs = append(g.refs, k)
			}
		}
		g.off[i+1] = int32(len(g.refs))
	}
	return g
}

// index returns scope's row in the table.
func (g *scopeGeo) index(scope netx.Prefix) (int, bool) {
	return slices.BinarySearchFunc(g.scopes, scope, netx.Prefix.Compare)
}

// samples returns scope i's site indices, in sampling order.
func (g *scopeGeo) samples(i int) []int32 { return g.refs[g.off[i]:g.off[i+1]] }

// within reports whether any of scope i's sites is possibly within
// radiusKm of center: the rule that puts a scope on a PoP's probing
// list.
func (g *scopeGeo) within(i int, center geo.Coord, radiusKm float64) bool {
	return slices.ContainsFunc(g.samples(i), func(k int32) bool {
		return g.sites[k].possiblyWithin(center, radiusKm)
	})
}

// withinAll decides every scope for one PoP, each site once: in[i] is
// within(i, center, radiusKm).
func (g *scopeGeo) withinAll(center geo.Coord, radiusKm float64) []bool {
	near := make([]bool, len(g.sites))
	for k := range g.sites {
		near[k] = g.sites[k].possiblyWithin(center, radiusKm)
	}
	in := make([]bool, len(g.scopes))
	for i := range in {
		in[i] = slices.ContainsFunc(g.samples(i), func(k int32) bool { return near[k] })
	}
	return in
}

// coord returns a representative point for scope i: its first site.
func (g *scopeGeo) coord(i int) (geo.Coord, bool) {
	if ks := g.samples(i); len(ks) > 0 {
		return g.sites[ks[0]].coord, true
	}
	return geo.Coord{}, false
}
