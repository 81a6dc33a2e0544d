package gpdns

import (
	"strconv"
	"sync"
	"time"

	"clientmap/internal/authdns"
	"clientmap/internal/domains"
	"clientmap/internal/netx"
	"clientmap/internal/traffic"
)

// LazyFill answers "would client-driven traffic have (name, scope) cached
// at PoP p in pool i at time t?" without simulating individual queries.
//
// For each (domain, scope prefix) it aggregates the Google-bound query
// rates of the scope's client /24s per PoP (a /24's queries always reach
// the PoP anycast assigns it), splits the rate evenly across the PoP's
// cache pools, and asks the traffic model's deterministic Poisson sampler
// for the most recent arrival within the record's TTL.
type LazyFill struct {
	model   *traffic.Model
	catalog map[string]domains.Domain
	pools   int

	// memo holds the per-(domain, scope) rate lines, striped by key hash.
	// Every probe consults it and after warmup nearly every call is a hit,
	// but a read lock still writes its reader count: striping spreads
	// those writes over 64 cache lines instead of one.
	memo [rateStripes]rateStripe
}

// rateStripes is the memo's stripe count (a power of two: stripeFor keeps
// the top bits of a multiplicative hash).
const rateStripes = 64

// rateStripe is one independently locked slice of the memo. The padding
// keeps neighbouring stripes' lock words on different cache lines.
type rateStripe struct {
	mu    sync.RWMutex
	rates map[ratesKey]*scopeRates
	_     [64]byte
}

// ratesKey identifies one (domain, scope) cache line. The struct key
// replaces a concatenated "domain|scope" string that was rebuilt — one
// allocation plus a prefix formatting — on every single probe.
type ratesKey struct {
	name  string
	scope netx.Prefix
}

// scopeRates caches the per-PoP aggregated rates for one (domain, scope).
type scopeRates struct {
	perPoP map[int]float64
	lon    float64
	// diurn is the rate-weighted mean diurnality of the scope's clients.
	diurn float64
}

// NewLazyFill builds the background-traffic model for the given per-PoP
// pool count (which must match the server's).
func NewLazyFill(model *traffic.Model, pools int) *LazyFill {
	cat := make(map[string]domains.Domain)
	for _, d := range domains.Catalog() {
		cat[d.Name] = d
	}
	lf := &LazyFill{model: model, catalog: cat, pools: pools}
	for i := range lf.memo {
		lf.memo[i].rates = make(map[ratesKey]*scopeRates)
	}
	return lf
}

// stripeFor picks a key's memo stripe by a multiplicative hash of the
// scope (the memo holds many scopes of a few domains).
func (lf *LazyFill) stripeFor(k ratesKey) *rateStripe {
	x := uint64(k.scope.Addr())<<8 | uint64(k.scope.Bits()) | uint64(len(k.name))<<40
	return &lf.memo[(x*0x9e3779b97f4a7c15)>>58]
}

// Invalidate drops every memoized (domain, scope) rate line. The memo
// assumes the world's prefix populations and resolver shares are frozen
// — true for fixed-window campaigns, false once the streaming mode
// churns the world. The stream calls Invalidate after applying each
// hour's churn events, so both a continuous run and a resumed run
// recompute rates from the same post-churn world instead of one of them
// serving stale memo entries.
func (lf *LazyFill) Invalidate() {
	for i := range lf.memo {
		st := &lf.memo[i]
		st.mu.Lock()
		st.rates = make(map[ratesKey]*scopeRates)
		st.mu.Unlock()
	}
}

// ratesFor aggregates (and memoizes) the per-PoP client query rates for a
// (domain, scope) cache line.
func (lf *LazyFill) ratesFor(d domains.Domain, scope netx.Prefix) *scopeRates {
	key := ratesKey{name: d.Name, scope: scope}
	st := lf.stripeFor(key)
	st.mu.RLock()
	r, ok := st.rates[key]
	st.mu.RUnlock()
	if ok {
		return r
	}

	r = &scopeRates{perPoP: make(map[int]float64)}
	first := true
	var rateSum, diurnSum float64
	scope.Slash24s(func(p netx.Slash24) bool {
		pi, ok := lf.model.W.PrefixInfoOf(p)
		if !ok || !pi.HasClients() {
			return true
		}
		if first {
			r.lon = pi.Coord.Lon
			first = false
		}
		rate := lf.model.GoogleDNSRate(pi, d)
		if rate <= 0 {
			return true
		}
		pop := lf.model.Router.PoPForClient(p, pi.Coord)
		r.perPoP[pop] += rate
		rateSum += rate
		diurnSum += rate * float64(pi.Diurnality)
		return true
	})
	if rateSum > 0 {
		r.diurn = diurnSum / rateSum
	} else {
		r.diurn = 1
	}

	st.mu.Lock()
	if prev, ok := st.rates[key]; ok {
		// Another worker computed the same line concurrently; keep one
		// instance so every caller shares the memo.
		r = prev
	} else {
		st.rates[key] = r
	}
	st.mu.Unlock()
	return r
}

// Lookup reports whether (name, a scope covering src) is cached at popIdx
// in the given pool at time now, and returns the synthetic entry if so.
//
// The cached entry's scope is the authoritative's *natural* scope for the
// block, occasionally flipped at fill time (authoritatives are not
// perfectly stable; appendix A.2 measures 90% exact agreement). Per RFC
// 7871 cache semantics a hit requires the cached scope to cover the query
// source, so a query at a stale or flipped scope can legitimately miss.
func (lf *LazyFill) Lookup(popIdx, poolIdx int, name string, src netx.Prefix, now time.Time) (entry, bool) {
	d, ok := lf.catalog[name]
	if !ok {
		return entry{}, false
	}
	if !d.SupportsECS {
		// Non-ECS domains have one global cache line per PoP; for a
		// popular domain it is effectively always warm, with scope 0.
		exp := now.Add(d.TTL / 2)
		return entry{name: name, addr: lazyAddr(name), scope: netx.PrefixFrom(0, 0), expiry: exp}, true
	}
	natural := authdns.NaturalScope(lf.model.W.Cfg.Seed, d, src)
	rates := lf.ratesFor(d, natural)
	rate, ok := rates.perPoP[popIdx]
	if !ok || rate <= 0 {
		return entry{}, false
	}
	// Sampler key "gpdns/<name>/<natural>/<pop>/<pool>", byte-built in
	// stack scratch — these bytes must equal the fmt.Sprintf("%s/%s/%d/%d")
	// key this line used before the zero-alloc rewrite, or every lazily
	// filled cache line would move (pinned by TestLazyKeyBytesMatchSprintf).
	var kb [96]byte
	key := append(kb[:0], "gpdns/"...)
	key = append(key, d.Name...)
	key = append(key, '/')
	key = natural.AppendTo(key)
	key = append(key, '/')
	key = strconv.AppendInt(key, int64(popIdx), 10)
	key = append(key, '/')
	key = strconv.AppendInt(key, int64(poolIdx), 10)
	arrival, ok := lf.model.LastEventBeforeDB(key, rate/float64(lf.pools), rates.lon, rates.diurn, now, d.TTL)
	if !ok {
		return entry{}, false
	}
	scope := lf.cachedScope(d, natural, popIdx, poolIdx, arrival)
	// A cached scope more specific than the query source does not cover
	// the source: cache miss (the prober will have probed the sibling
	// scopes separately).
	if scope.Bits() > src.Bits() {
		return entry{}, false
	}
	return entry{
		name:   name,
		addr:   lazyAddr(name),
		scope:  scope,
		expiry: arrival.Add(d.TTL),
	}, true
}

// cachedScope applies fill-time scope instability: mostly the natural
// scope, occasionally shifted a few bits — deterministic per cache fill.
func (lf *LazyFill) cachedScope(d domains.Domain, natural netx.Prefix, popIdx, poolIdx int, arrival time.Time) netx.Prefix {
	seed := lf.model.W.Cfg.Seed
	fill := arrival.UnixNano()
	// Byte-identical to the former fmt.Sprintf("gpdns/flip/%s/%s/%d/%d/%d")
	// key; suffix draws reuse the buffer by truncating back to the base.
	var kb [128]byte
	key := append(kb[:0], "gpdns/flip/"...)
	key = append(key, d.Name...)
	key = append(key, '/')
	key = natural.AppendTo(key)
	key = append(key, '/')
	key = strconv.AppendInt(key, int64(popIdx), 10)
	key = append(key, '/')
	key = strconv.AppendInt(key, int64(poolIdx), 10)
	key = append(key, '/')
	key = strconv.AppendInt(key, fill, 10)
	base := len(key)
	u := seed.HashUnitB(key)
	if u >= d.Scope.FlipProb {
		return natural
	}
	// Magnitude distribution mirrors authdns: mostly ±1-2 bits.
	v := seed.HashUnitB(append(key[:base], "/mag"...))
	var delta int
	switch {
	case v < 0.5:
		delta = 1
	case v < 0.8:
		delta = 2
	case v < 0.93:
		delta = 3 + int(seed.Hash64B(append(key[:base], "/m2"...))%2)
	default:
		delta = 5 + int(seed.Hash64B(append(key[:base], "/m3"...))%4)
	}
	if seed.HashUnitB(append(key[:base], "/sign"...)) < 0.5 {
		delta = -delta
	}
	bits := natural.Bits() + delta
	if bits > 24 {
		bits = 24
	}
	if bits < d.Scope.MinBits-4 {
		bits = d.Scope.MinBits - 4
	}
	if bits < 16 {
		bits = 16 // see authdns: never coarser than /16
	}
	return netx.PrefixFrom(natural.Addr(), bits)
}

// lazyAddr is the synthetic answer address for lazily filled entries; it
// only needs to be stable per name.
func lazyAddr(name string) netx.Addr {
	var h uint32 = 2166136261
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return netx.AddrFrom4(198, 18, byte(h>>8), byte(h))
}
