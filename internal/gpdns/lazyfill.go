package gpdns

import (
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clientmap/internal/authdns"
	"clientmap/internal/churn"
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
//
// Everything but the sampler draw is a pure function of the domain, the
// query's ECS source clamped to the domain's Scope.MaxBits, and the world
// state of the /24s inside that key's natural scope, so it is memoized
// as one line per such key: the natural scope, the per-PoP rates, and the
// rate-weighted longitude and diurnality. A probe reads its line without
// taking a lock or writing shared memory; a missing line is filled under
// one mutex, which also memoizes each client /24's anycast route. Routes
// read only the /24 and its coordinate, which no churn changes, so they
// live as long as the LazyFill; Invalidate drops only the lines a churn
// effect names.
type LazyFill struct {
	model *traffic.Model
	doms  []domains.Domain
	index map[string]int32 // name → doms index
	pools int

	mu     sync.Mutex // serializes fills and invalidation: publishing lines, writing routes
	lines  atomic.Pointer[lineTable]
	routes map[netx.Slash24]int // client /24 → PoP index, guarded by mu
}

// lineKey is what a query carries: the domain and its ECS source, clamped
// to the domain's Scope.MaxBits. The natural scope depends on nothing
// finer, so a client sending /32 sources cannot grow the memo.
type lineKey struct {
	dom int32
	src netx.Prefix
}

// hash mixes every key bit into the top bits lineTable indexes by (the
// splitmix64 finalizer): scopes are aligned blocks, and a bare
// multiplicative hash of them clusters enough to lengthen probes by a
// third.
func (k lineKey) hash() uint64 {
	x := uint64(k.src.Addr())<<8 | uint64(k.src.Bits()) | uint64(k.dom)<<40
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return x * 0x94d049bb133111eb
}

// line is the memoized lazy-fill state of one key.
type line struct {
	key     lineKey
	natural netx.Prefix
	lon     float64
	// diurn is the rate-weighted mean diurnality of the scope's clients.
	diurn float64
	// sampler is the cache-fill sampler key's line-constant head,
	// "gpdns/<name>/<natural>/", as prefix states; Lookup extends it by
	// "<pop>/<pool>".
	sampler traffic.EventKey
	// rates holds each PoP's aggregated rate, in first-seen order; every
	// rate is positive.
	rates []popRate
}

type popRate struct {
	pop  int
	rate float64
}

// rate returns the aggregated rate at PoP pop (zero if none).
func (l *line) rate(pop int) float64 {
	for _, r := range l.rates {
		if r.pop == pop {
			return r.rate
		}
	}
	return 0
}

// lineTable is an open-addressed hash table of published lines that
// readers probe without a lock. A slot changes once, from nil to a line;
// a table past half full is replaced by a doubled copy, so a reader
// holding the old table sees a subset of the lines and retries a miss
// under LazyFill.mu.
type lineTable struct {
	slots []atomic.Pointer[line]
	shift uint
	n     int // lines published, guarded by LazyFill.mu
}

// minLineBits is an empty table's size, 2^minLineBits slots.
const minLineBits = 10

func newLineTable(bits uint) *lineTable {
	return &lineTable{slots: make([]atomic.Pointer[line], 1<<bits), shift: 64 - bits}
}

// lineBitsFor returns the table size n lines grow an empty table to: the
// smallest power of two at least 2n, and at least 2^minLineBits.
func lineBitsFor(n int) uint {
	bits := uint(minLineBits)
	for 1<<bits < 2*n {
		bits++
	}
	return bits
}

// get returns the line for k, or nil.
func (t *lineTable) get(k lineKey) *line {
	mask := uint64(len(t.slots) - 1)
	for i := k.hash() >> t.shift; ; i = (i + 1) & mask {
		if l := t.slots[i].Load(); l == nil || l.key == k {
			return l
		}
	}
}

// put publishes l, which t does not hold yet. Callers hold LazyFill.mu.
func (t *lineTable) put(l *line) {
	mask := uint64(len(t.slots) - 1)
	i := l.key.hash() >> t.shift
	for t.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	t.slots[i].Store(l)
	t.n++
}

// NewLazyFill builds the background-traffic model for the given per-PoP
// pool count (which must match the server's).
func NewLazyFill(model *traffic.Model, pools int) *LazyFill {
	lf := &LazyFill{model: model, doms: domains.Catalog(), index: make(map[string]int32), pools: pools,
		routes: make(map[netx.Slash24]int)}
	for i, d := range lf.doms {
		lf.index[d.Name] = int32(i)
	}
	lf.lines.Store(newLineTable(minLineBits))
	return lf
}

// Invalidate drops the memoized lines a churn effect made stale, once
// the effect's events are applied to the world. A line is a function of
// the /24s inside its natural scope, so a /24 set drops exactly the
// lines whose natural scope holds one of them; an effect on every /24's
// rates drops every line, into a table already sized for the lines the
// last epoch held. Client routes are never dropped. Callers invalidate
// between probe passes: a reader still holding the old table could
// otherwise see a dropped line. A continuous and a resumed stream apply
// the same effects, so both recompute stale lines from the same
// post-churn world.
func (lf *LazyFill) Invalidate(e churn.Effect) {
	if e.Empty() {
		return
	}
	lf.mu.Lock()
	defer lf.mu.Unlock()
	old := lf.lines.Load()
	if e.AllRates {
		lf.lines.Store(newLineTable(lineBitsFor(old.n)))
		return
	}
	touched := slices.Clone(e.Prefixes)
	slices.Sort(touched)
	next := newLineTable(64 - old.shift)
	for i := range old.slots {
		if l := old.slots[i].Load(); l != nil && !holdsAny(l.natural, touched) {
			next.put(l)
		}
	}
	lf.lines.Store(next)
}

// holdsAny reports whether scope covers one of the sorted /24s.
func holdsAny(scope netx.Prefix, sorted []netx.Slash24) bool {
	first := scope.FirstSlash24()
	i, _ := slices.BinarySearch(sorted, first)
	return i < len(sorted) && sorted[i] < first+netx.Slash24(scope.NumSlash24s())
}

// lineFor returns the line of (domain di, src), filling it on a miss.
func (lf *LazyFill) lineFor(di int32, d *domains.Domain, src netx.Prefix) *line {
	if src.Bits() > d.Scope.MaxBits {
		src = netx.PrefixFrom(src.Addr(), d.Scope.MaxBits)
	}
	k := lineKey{dom: di, src: src}
	if l := lf.lines.Load().get(k); l != nil {
		return l
	}
	lf.mu.Lock()
	defer lf.mu.Unlock()
	t := lf.lines.Load()
	if l := t.get(k); l != nil {
		return l // filled while this caller waited
	}
	l := lf.fill(d, k)
	if 2*(t.n+1) > len(t.slots) {
		next := newLineTable(64 - t.shift + 1)
		for i := range t.slots {
			if old := t.slots[i].Load(); old != nil {
				next.put(old)
			}
		}
		lf.lines.Store(next)
		t = next
	}
	t.put(l)
	return l
}

// fill computes k's line. Callers hold lf.mu. The rates are summed per
// /24 in ascending order, so every float is a pure function of the key
// and of the world state inside its natural scope.
func (lf *LazyFill) fill(d *domains.Domain, k lineKey) *line {
	natural := authdns.NaturalScope(lf.model.W.Cfg.Seed, *d, k.src)
	var kb [96]byte
	head := append(kb[:0], "gpdns/"...)
	head = append(head, d.Name...)
	head = append(head, '/')
	head = natural.AppendTo(head)
	head = append(head, '/')
	l := &line{key: k, natural: natural, sampler: lf.model.EventKey(head)}
	first := true
	var rateSum, diurnSum float64
	natural.Slash24s(func(p netx.Slash24) bool {
		pi, ok := lf.model.W.PrefixInfoOf(p)
		if !ok || !pi.HasClients() {
			return true
		}
		if first {
			l.lon = pi.Coord.Lon
			first = false
		}
		rate := lf.model.GoogleDNSRate(pi, *d)
		if rate <= 0 {
			return true
		}
		pop, ok := lf.routes[p]
		if !ok {
			pop = lf.model.Router.PoPForClient(p, pi.Coord)
			lf.routes[p] = pop
		}
		l.addRate(pop, rate)
		rateSum += rate
		diurnSum += rate * float64(pi.Diurnality)
		return true
	})
	if rateSum > 0 {
		l.diurn = diurnSum / rateSum
	} else {
		l.diurn = 1
	}
	return l
}

func (l *line) addRate(pop int, rate float64) {
	for i := range l.rates {
		if l.rates[i].pop == pop {
			l.rates[i].rate += rate
			return
		}
	}
	l.rates = append(l.rates, popRate{pop: pop, rate: rate})
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
	di, ok := lf.index[name]
	if !ok {
		return entry{}, false
	}
	d := &lf.doms[di]
	if !d.SupportsECS {
		// Non-ECS domains have one global cache line per PoP; for a
		// popular domain it is effectively always warm, with scope 0.
		exp := now.Add(d.TTL / 2)
		return entry{name: name, addr: lazyAddr(name), scope: netx.PrefixFrom(0, 0), expiry: exp}, true
	}
	l := lf.lineFor(di, d, src)
	rate := l.rate(popIdx)
	if rate <= 0 {
		return entry{}, false
	}
	natural := l.natural
	// Sampler key "gpdns/<name>/<natural>/<pop>/<pool>": the line holds
	// the states after its head, and the tail is byte-built in stack
	// scratch. The hashed bytes must equal the fmt.Sprintf("%s/%s/%d/%d")
	// key this line used before the zero-alloc rewrite, or every lazily
	// filled cache line would move (pinned by TestLazyKeyBytesMatchSprintf).
	var kb [24]byte
	tail := strconv.AppendInt(kb[:0], int64(popIdx), 10)
	tail = append(tail, '/')
	tail = strconv.AppendInt(tail, int64(poolIdx), 10)
	arrival, ok := lf.model.LastEventBefore(l.sampler.Extend(tail), rate/float64(lf.pools), l.lon, l.diurn, now, d.TTL)
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
func (lf *LazyFill) cachedScope(d *domains.Domain, natural netx.Prefix, popIdx, poolIdx int, arrival time.Time) netx.Prefix {
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
