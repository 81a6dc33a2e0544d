package gpdns

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"clientmap/internal/anycast"
	"clientmap/internal/clockx"
	"clientmap/internal/dnsnet"
	"clientmap/internal/dnswire"
	"clientmap/internal/metrics"
	"clientmap/internal/netx"
)

// MyAddrDomain is the diagnostic name whose TXT answer reveals which PoP a
// query reached, mirroring o-o.myaddr.l.google.com (§3.1.1).
const MyAddrDomain = "o-o.myaddr.l.google.com"

// PoolsPerPoP is the number of independent cache pools at each site
// (§3.1.1: Google runs several per PoP, which is why the prober sends
// redundant queries).
const PoolsPerPoP = 3

// Google's rate limits as §3.1.1 cites them: a strict per (source,
// repeated domain) limit over UDP that forces the prober onto TCP, and a
// per-source limit over TCP (the documented normal limit is 1,500 QPS).
const (
	udpPerDomainRate, udpPerDomainBurst = 1.0, 8
	tcpRate, tcpBurst                   = 1500, 3000
)

// Config configures the simulator.
type Config struct {
	// Clock is the time unscheduled queries are served at and the rate
	// limiters refill on. Required.
	Clock clockx.Clock
	// Metrics, when set, mirrors the server's counters into the shared
	// registry under "gpdns/…" — queries, cache hits, rate-limit drops,
	// bucket creations, and a token-occupancy histogram sampled on every
	// unscheduled (bucket-checked) arrival. Nil discards.
	Metrics *metrics.Registry
}

// Server simulates the whole anycast service. It implements dnsnet.Handler
// (un-rate-limited); mount UDP() and TCP() to get transport-specific
// limiting.
type Server struct {
	cfg    Config
	router *anycast.Router

	sites []*site
	// upstream, when set, resolves RD=1 cache misses (the authoritative).
	upstream dnsnet.Handler
	// lazy, when set, supplies background client-driven cache contents.
	lazy *LazyFill

	// mu serializes route-table writes and the rate-limit maps; reads of
	// the routing state go through the atomic pointer below, so the
	// per-query hot path takes no lock at all.
	mu      sync.Mutex
	routes  atomic.Pointer[routeTable]
	udpLims map[udpLimKey]*dnsnet.TokenBucket
	tcpLims map[netx.Addr]*dnsnet.TokenBucket

	poolCtr atomic.Uint64

	// Query, hit and rate-limit counters (what Stats reports) plus
	// rate-limit occupancy, resolved from Config.Metrics or, when that is
	// nil, from a private registry: each query is counted once. Queries
	// and hits add into the caller's metrics.Tally when its context
	// carries one.
	mQueries, mHits, mLimited, mBuckets *metrics.Counter
	mTokens                             *metrics.Histogram
}

// routeTable is the immutable routing state ServeDNS reads per query.
// Registration replaces the whole table under s.mu (copy-on-write);
// lookups load it atomically, so routing a query is lock-free.
type routeTable struct {
	vantages map[netx.Addr]int   // registered vantage source → PoP idx
	clients  func(netx.Addr) int // fallback source router (client addrs)
}

// udpLimKey identifies one UDP rate-limit bucket: Google's strict UDP
// limit is per (source, repeated domain). A struct key hashes directly —
// the old formatted-string key allocated on every unscheduled query and
// went through reflection in fmt.
type udpLimKey struct {
	from netx.Addr
	name string
}

// tokenBounds is the fixed bucket layout of the rate-limit occupancy
// histogram (token counts are small: UDP buckets burst at 8, TCP at a
// few thousand).
var tokenBounds = []int64{0, 1, 2, 4, 8, 16, 64, 256, 1024, 4096}

// NewServer builds the simulator over the router's PoP catalog.
func NewServer(cfg Config, router *anycast.Router) *Server {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		cfg:      cfg,
		router:   router,
		udpLims:  make(map[udpLimKey]*dnsnet.TokenBucket),
		tcpLims:  make(map[netx.Addr]*dnsnet.TokenBucket),
		mQueries: reg.Counter("gpdns/queries"),
		mHits:    reg.Counter("gpdns/cache_hits"),
		mLimited: reg.Counter("gpdns/ratelimit/limited"),
		mBuckets: reg.Counter("gpdns/ratelimit/buckets_created"),
		mTokens:  reg.Histogram("gpdns/ratelimit/tokens", tokenBounds),
	}
	s.routes.Store(&routeTable{vantages: make(map[netx.Addr]int)})
	for range router.PoPs() {
		s.sites = append(s.sites, newSite())
	}
	return s
}

// SetUpstream wires the authoritative handler used for RD=1 misses.
func (s *Server) SetUpstream(h dnsnet.Handler) { s.upstream = h }

// SetLazyFill attaches the background-traffic cache model.
func (s *Server) SetLazyFill(lf *LazyFill) { s.lazy = lf }

// LazyFill returns the attached background-traffic cache model, if any —
// the streaming mode invalidates its memo after each churn step.
func (s *Server) LazyFill() *LazyFill { return s.lazy }

// RegisterVantage declares that queries from src reach the PoP at catalog
// index popIdx (the result of the vantage's anycast route).
func (s *Server) RegisterVantage(src netx.Addr, popIdx int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.routes.Load()
	next := &routeTable{vantages: make(map[netx.Addr]int, len(old.vantages)+1), clients: old.clients}
	for k, v := range old.vantages {
		next.vantages[k] = v
	}
	next.vantages[src] = popIdx
	s.routes.Store(next)
}

// SetClientRouter supplies the PoP lookup for non-vantage sources (used by
// event-driven client simulations); return -1 for unroutable sources.
func (s *Server) SetClientRouter(f func(netx.Addr) int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.routes.Load()
	s.routes.Store(&routeTable{vantages: old.vantages, clients: f})
}

// Stats reports (queries served, cache hits, rate-limited drops): the
// values of the server's gpdns/… counters. Queries and hits served on a
// context carrying a metrics.Tally reach the counters when the tally is
// flushed, so Stats lags a probe batch still in flight.
func (s *Server) Stats() (queries, hits, limited uint64) {
	return uint64(s.mQueries.Value()), uint64(s.mHits.Value()), uint64(s.mLimited.Value())
}

func (s *Server) route(from netx.Addr) int {
	rt := s.routes.Load()
	if popIdx, ok := rt.vantages[from]; ok {
		return popIdx
	}
	if rt.clients != nil {
		return rt.clients(from)
	}
	return -1
}

// ServeDNS implements dnsnet.Handler without transport rate limits.
func (s *Server) ServeDNS(ctx context.Context, from netx.Addr, q *dnswire.Message) *dnswire.Message {
	s.mQueries.IncIn(ctx)
	popIdx := s.route(from)
	if popIdx < 0 || popIdx >= len(s.sites) {
		return nil // no anycast route from this source
	}
	qq := q.Question()

	if qq.Name == MyAddrDomain {
		r := q.ReplyInto(dnswire.AcquireMessage())
		r.RecursionAvailable = true
		r.Answers = append(r.Answers, dnswire.RR{
			Name:  qq.Name,
			Class: dnswire.ClassINET,
			TTL:   60,
			Data:  dnswire.TXT{Strings: []string{s.router.PoPs()[popIdx].Name}},
		})
		return r
	}
	if qq.Type != dnswire.TypeA {
		r := q.ReplyInto(dnswire.AcquireMessage())
		r.RecursionAvailable = true
		return r
	}

	// Effective ECS source: supplied by the client, else derived from the
	// client address at /24 — Google's default behaviour.
	src := netx.PrefixFrom(from, 24)
	if q.EDNS != nil && q.EDNS.ECS != nil {
		src = q.EDNS.ECS.SourcePrefix()
	}

	now := clockx.NowIn(ctx, s.cfg.Clock)
	st := s.sites[popIdx]
	// Pool selection. The front end sprays queries across a site's pools.
	// For scheduled queries (the parallel campaign attaches the probe's
	// timestamp to ctx) the pool must be a pure function of the query, or
	// the set of pools a redundancy burst covers would depend on how
	// concurrent workers interleave: hash the transaction id, which the
	// prober varies per attempt exactly so bursts spread over pools.
	// Unscheduled traffic (live mode, event-driven fills, tests) keeps the
	// round-robin counter, which models the same spray for callers that
	// arrive one at a time.
	var poolIdx int
	if _, scheduled := clockx.TimeFrom(ctx); scheduled {
		poolIdx = int(q.ID) % len(st.pools)
	} else {
		poolIdx = int(s.poolCtr.Add(1)) % len(st.pools)
	}
	p := st.pools[poolIdx]

	if e, ok := p.lookup(qq.Name, src, now); ok {
		s.mHits.IncIn(ctx)
		return answerFor(q, e, now)
	}
	// Lazy background fill: would client-driven traffic have this cached?
	if s.lazy != nil {
		if e, ok := s.lazy.Lookup(popIdx, poolIdx, qq.Name, src, now); ok {
			s.mHits.IncIn(ctx)
			return answerFor(q, e, now)
		}
	}

	if !q.RecursionDesired {
		// Cache snooping: a non-recursive miss never goes upstream (the
		// behaviour §3.1.1 verifies against a controlled authoritative).
		return missFor(q)
	}
	if s.upstream == nil {
		r := q.ReplyInto(dnswire.AcquireMessage())
		r.RCode = dnswire.RCodeServFail
		return r
	}

	// Recursive resolution: forward with ECS and cache under the returned
	// scope in this pool. The forward query and the upstream response are
	// both consumed here, so both go back to the message pool.
	fq := dnswire.AcquireMessage().SetQuery(q.ID, qq.Name, dnswire.TypeA).WithECS(src)
	resp := s.upstream.ServeDNS(ctx, 0, fq)
	dnswire.ReleaseMessage(fq)
	if resp == nil || resp.RCode != dnswire.RCodeSuccess || len(resp.Answers) == 0 {
		r := q.ReplyInto(dnswire.AcquireMessage())
		r.RecursionAvailable = true
		if resp != nil {
			r.RCode = resp.RCode
			dnswire.ReleaseMessage(resp)
		} else {
			r.RCode = dnswire.RCodeServFail
		}
		return r
	}
	a, ok := resp.Answers[0].Data.(dnswire.A)
	if !ok {
		dnswire.ReleaseMessage(resp)
		r := q.ReplyInto(dnswire.AcquireMessage())
		r.RCode = dnswire.RCodeServFail
		return r
	}
	scope := netx.PrefixFrom(src.Addr(), 0)
	if resp.EDNS != nil && resp.EDNS.ECS != nil {
		scope = netx.PrefixFrom(src.Addr(), int(resp.EDNS.ECS.ScopePrefixLen))
	}
	e := entry{
		name:   qq.Name,
		addr:   a.Addr,
		scope:  scope,
		expiry: now.Add(time.Duration(resp.Answers[0].TTL) * time.Second),
	}
	dnswire.ReleaseMessage(resp)
	p.insert(e, now)
	return answerFor(q, e, now)
}

// UDP returns the handler with Google's UDP behaviour: a strict per
// (source, domain) limit that repeated probing trips quickly. Dropped
// queries time out (nil response).
func (s *Server) UDP() dnsnet.Handler {
	return dnsnet.HandlerFunc(func(ctx context.Context, from netx.Addr, q *dnswire.Message) *dnswire.Message {
		if _, scheduled := clockx.TimeFrom(ctx); scheduled {
			// Scheduled queries are paced by construction (the prober
			// spreads them across the pass window before issuing any), and
			// a token bucket consulted in worker order would admit a
			// different subset on every run. Rate conformance for the
			// campaign is enforced by the schedule, not re-checked here.
			return s.ServeDNS(ctx, from, q)
		}
		key := udpLimKey{from: from, name: q.Question().Name}
		s.mu.Lock()
		lim, ok := s.udpLims[key]
		if !ok {
			lim = dnsnet.NewTokenBucket(s.cfg.Clock, udpPerDomainRate, udpPerDomainBurst)
			s.udpLims[key] = lim
			s.mBuckets.Inc()
		}
		s.mu.Unlock()
		s.mTokens.Observe(int64(lim.Tokens()))
		if !lim.Allow() {
			s.mLimited.Inc()
			return nil
		}
		return s.ServeDNS(ctx, from, q)
	})
}

// TCP returns the handler with the per-source TCP limit (~1,500 QPS).
func (s *Server) TCP() dnsnet.Handler {
	return dnsnet.HandlerFunc(func(ctx context.Context, from netx.Addr, q *dnswire.Message) *dnswire.Message {
		if _, scheduled := clockx.TimeFrom(ctx); scheduled {
			// See UDP(): schedule-paced queries skip arrival-order buckets.
			return s.ServeDNS(ctx, from, q)
		}
		s.mu.Lock()
		lim, ok := s.tcpLims[from]
		if !ok {
			lim = dnsnet.NewTokenBucket(s.cfg.Clock, tcpRate, tcpBurst)
			s.tcpLims[from] = lim
			s.mBuckets.Inc()
		}
		s.mu.Unlock()
		s.mTokens.Observe(int64(lim.Tokens()))
		if !lim.Allow() {
			s.mLimited.Inc()
			return nil
		}
		return s.ServeDNS(ctx, from, q)
	})
}
