package stream

import (
	"clientmap/internal/netx"
	"clientmap/internal/serve"
	"clientmap/internal/snapshot"
)

// Ledger is the stream's decaying evidence store: per (domain, response
// scope) hit series with per-PoP attribution, plus the DNS-logs channel's
// per-resolver-/24 observation series. All evidence is hour-bucketed
// Series values, decayed in place at the end of every hour, so the
// ledger's memory footprint is bounded by TTL × live scopes no matter
// how long the stream runs.
type Ledger struct {
	TTL int32

	// Domains maps domain → response scope → evidence.
	Domains map[string]map[netx.Prefix]*ScopeSeries
	// DNS maps a root-visible resolver's /24 to the hours it emitted
	// Chromium probes in.
	DNS map[netx.Slash24]*Series
}

// ScopeSeries is the decaying evidence for one (domain, scope).
type ScopeSeries struct {
	Hits Series
	// PoPs attributes hits to serving sites, mirroring the campaign
	// ledger's first-hit PoP attribution but with per-hour granularity.
	PoPs map[string]*Series
}

// NewLedger builds an empty ledger with the given evidence TTL.
func NewLedger(ttl int32) *Ledger {
	return &Ledger{
		TTL:     ttl,
		Domains: make(map[string]map[netx.Prefix]*ScopeSeries),
		DNS:     make(map[netx.Slash24]*Series),
	}
}

// AddHit folds one cache hit into the ledger. Reports whether the
// (domain, scope) had no live evidence before this hit — a scope
// entering the map.
func (l *Ledger) AddHit(domain string, scope netx.Prefix, pop string, hour int32) (fresh bool) {
	scopes := l.Domains[domain]
	if scopes == nil {
		scopes = make(map[netx.Prefix]*ScopeSeries)
		l.Domains[domain] = scopes
	}
	ss := scopes[scope]
	if ss == nil {
		ss = &ScopeSeries{PoPs: make(map[string]*Series)}
		scopes[scope] = ss
	}
	fresh = !ss.Hits.Live()
	ss.Hits.Add(hour, 1)
	ps := ss.PoPs[pop]
	if ps == nil {
		ps = &Series{}
		ss.PoPs[pop] = ps
	}
	ps.Add(hour, 1)
	return fresh
}

// AddDNS records that the resolver /24 emitted root-visible Chromium
// probes during the hour.
func (l *Ledger) AddDNS(p netx.Slash24, hour int32) {
	s := l.DNS[p]
	if s == nil {
		s = &Series{}
		l.DNS[p] = s
	}
	s.Add(hour, 1)
}

// DecayTo drops evidence older than the TTL as of the given hour and
// removes emptied entries. It returns how many (domain, scope) entries
// decayed out this step — scopes whose confidence aged to nothing and
// whose probe tasks therefore fall back into the scheduler's candidate
// pool.
func (l *Ledger) DecayTo(hour int32) (decayedScopes int) {
	for domain, scopes := range l.Domains {
		for scope, ss := range scopes {
			if ss.Hits.decayInPlace(hour, l.TTL) {
				decayedScopes++
			}
			for pop, ps := range ss.PoPs {
				ps.decayInPlace(hour, l.TTL)
				if !ps.Live() {
					delete(ss.PoPs, pop)
				}
			}
			if !ss.Hits.Live() {
				delete(scopes, scope)
			}
		}
		if len(scopes) == 0 {
			delete(l.Domains, domain)
		}
	}
	for p, s := range l.DNS {
		s.decayInPlace(hour, l.TTL)
		if !s.Live() {
			delete(l.DNS, p)
		}
	}
	return decayedScopes
}

// ActiveScopes counts distinct response scopes with live evidence in any
// domain.
func (l *Ledger) ActiveScopes() int {
	seen := make(map[netx.Prefix]struct{})
	for _, scopes := range l.Domains {
		for scope := range scopes {
			seen[scope] = struct{}{}
		}
	}
	return len(seen)
}

// DNSActive counts resolver /24s with live DNS-logs evidence.
func (l *Ledger) DNSActive() int { return len(l.DNS) }

// PoPLive reports whether any live evidence is attributed to the PoP.
func (l *Ledger) PoPLive(pop string) bool {
	for _, scopes := range l.Domains {
		for _, ss := range scopes {
			if ps, ok := ss.PoPs[pop]; ok && ps.Live() {
				return true
			}
		}
	}
	return false
}

// PoPLastHit returns the most recent evidence hour attributed to the
// PoP across all live scopes, and whether any exists.
func (l *Ledger) PoPLastHit(pop string) (lastHit int32, live bool) {
	lastHit = -1
	for _, scopes := range l.Domains {
		for _, ss := range scopes {
			ps, ok := ss.PoPs[pop]
			if !ok {
				continue
			}
			if h, ok := ps.Last(); ok {
				live = true
				if h > lastHit {
					lastHit = h
				}
			}
		}
	}
	return lastHit, live
}

// CoveredLive reports whether any live scope covers the address — the
// rolling map would answer "active" for it. lastHit returns the most
// recent evidence hour over the covering scopes.
func (l *Ledger) CoveredLive(a netx.Addr) (lastHit int32, covered bool) {
	lastHit = -1
	for _, scopes := range l.Domains {
		for scope, ss := range scopes {
			if !scope.Contains(a) {
				continue
			}
			if h, ok := ss.Hits.Last(); ok {
				covered = true
				if h > lastHit {
					lastHit = h
				}
			}
		}
	}
	return lastHit, covered
}

// ServeScopes folds the live evidence into serve.ScopeEvidence rows as
// of the given hour: scopes merge across domains, the confidence window
// is the TTL (hour buckets in place of passes), and every slice comes
// out in the sorted order serve.Validate demands. The fold visits maps
// in sorted key order, so the same ledger always produces the same rows.
func (l *Ledger) ServeScopes(hour int32) []serve.ScopeEvidence {
	type agg struct {
		hits    int
		mask    uint64
		domains int
		pops    map[string]int
	}
	merged := make(map[netx.Prefix]*agg)

	for _, d := range snapshot.SortedKeys(l.Domains) {
		scopes := l.Domains[d]
		for _, p := range snapshot.SortedKeysFunc(scopes, netx.Prefix.Compare) {
			ss := scopes[p]
			a := merged[p]
			if a == nil {
				a = &agg{pops: make(map[string]int)}
				merged[p] = a
			}
			a.hits += int(ss.Hits.Total())
			a.mask |= ss.Hits.Mask(hour, int(l.TTL))
			a.domains++
			for _, pop := range snapshot.SortedKeys(ss.PoPs) {
				a.pops[pop] += int(ss.PoPs[pop].Total())
			}
		}
	}

	out := make([]serve.ScopeEvidence, 0, len(merged))
	for _, p := range snapshot.SortedKeysFunc(merged, netx.Prefix.Compare) {
		a := merged[p]
		e := serve.ScopeEvidence{
			Scope:      p,
			Hits:       a.hits,
			PassMask:   a.mask,
			Domains:    a.domains,
			Confidence: serve.Confidence(a.mask, int(l.TTL)),
		}
		for _, pop := range snapshot.SortedKeys(a.pops) {
			e.PoPs = append(e.PoPs, serve.PoPEvidence{PoP: pop, Hits: a.pops[pop]})
		}
		out = append(out, e)
	}
	return out
}
