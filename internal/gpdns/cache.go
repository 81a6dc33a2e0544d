// Package gpdns simulates Google Public DNS as the cache-probing technique
// experiences it: a globally anycast recursive resolver with independent
// per-PoP cache pools, RFC 7871 ECS cache semantics, per-transport rate
// limits, and the property that non-recursive (RD=0) queries reveal cache
// contents without polluting them.
//
// Cache contents come from two sources that can be combined freely:
//
//   - event-driven: explicit RD=1 queries (from simulated clients or real
//     sockets) are forwarded to the authoritative and cached under the
//     returned scope — the path integration tests and live demos use; and
//   - lazy background fill: the world's client populations are modeled as
//     Poisson query processes, and "is this record cached at this PoP right
//     now?" is answered deterministically in O(1) at probe time, which is
//     what makes simulating a 120-hour whole-address-space campaign
//     tractable.
package gpdns

import (
	"sync"
	"sync/atomic"
	"time"

	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
)

// entry is one cached RRset.
type entry struct {
	name   string
	addr   netx.Addr
	scope  netx.Prefix // cache key granularity; /0 for non-ECS domains
	expiry time.Time
}

// poolStripes is a pool's shard count. Sixteen mutexes keep concurrent
// probe workers for different domains off each other's locks; the
// per-shard maps stay small enough that the split costs nothing.
const poolStripes = 16

// pool is one independent, unbounded cache within a PoP. Google operates
// several per site (§3.1.1 cites Trufflehunter), which is why the prober
// issues redundant queries.
//
// Internally the pool is striped by a hash of the queried name so that
// parallel probe workers — which hammer one pool from many goroutines —
// do not serialize on a single mutex.
type pool struct {
	shards [poolStripes]poolShard
}

// poolShard is one independently locked slice of a pool's key space.
type poolShard struct {
	mu sync.Mutex
	// byName holds the cached entries for a name; ECS-aware domains can
	// have many entries under different scope prefixes.
	byName map[string][]entry
	// size counts the stripe's entries. It is written only under mu but
	// read atomically, so a lookup on an empty stripe — every probe of a
	// campaign, whose RD=0 queries never insert — takes no lock and
	// writes no shared memory.
	size atomic.Int64
}

func newPool() *pool {
	p := &pool{}
	for i := range p.shards {
		p.shards[i].byName = make(map[string][]entry)
	}
	return p
}

// shardFor picks the stripe for a name by FNV-1a.
func (p *pool) shardFor(name string) *poolShard {
	var h uint32 = 2166136261
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return &p.shards[h%poolStripes]
}

// lookup returns the live entry whose scope covers src, preferring the most
// specific cover. Scope-/0 entries cover everything.
func (p *pool) lookup(name string, src netx.Prefix, now time.Time) (entry, bool) {
	sh := p.shardFor(name)
	if sh.size.Load() == 0 {
		return entry{}, false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	entries := sh.byName[name]
	best := -1
	for i := range entries {
		e := &entries[i]
		if !e.expiry.After(now) {
			continue
		}
		if e.scope.ContainsPrefix(src) || src.ContainsPrefix(e.scope) {
			if best < 0 || e.scope.Bits() > entries[best].scope.Bits() {
				best = i
			}
		}
	}
	if best < 0 {
		return entry{}, false
	}
	return entries[best], true
}

// insert caches e, replacing an expired or same-scope entry for the name.
func (p *pool) insert(e entry, now time.Time) {
	sh := p.shardFor(e.name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	entries := sh.byName[e.name]
	// Drop expired entries opportunistically and replace same-scope ones.
	out := entries[:0]
	for _, old := range entries {
		if !old.expiry.After(now) || old.scope == e.scope {
			sh.size.Add(-1)
			continue
		}
		out = append(out, old)
	}
	sh.byName[e.name] = append(out, e)
	sh.size.Add(1)
}

// site is the cache state of one PoP.
type site struct {
	pools []*pool
}

func newSite() *site {
	s := &site{pools: make([]*pool, PoolsPerPoP)}
	for i := range s.pools {
		s.pools[i] = newPool()
	}
	return s
}

// ttlRemaining converts an expiry into the TTL field of a response.
func ttlRemaining(expiry, now time.Time) uint32 {
	d := expiry.Sub(now)
	if d <= 0 {
		return 0
	}
	secs := uint32(d / time.Second)
	if secs == 0 {
		secs = 1
	}
	return secs
}

// answerFor builds the cache-hit response for query q in a pooled message;
// the consumer of the response releases it.
func answerFor(q *dnswire.Message, e entry, now time.Time) *dnswire.Message {
	r := q.ReplyInto(dnswire.AcquireMessage())
	r.RecursionAvailable = true
	r.Answers = append(r.Answers, dnswire.RR{
		Name:  e.name,
		Class: dnswire.ClassINET,
		TTL:   ttlRemaining(e.expiry, now),
		Data:  dnswire.A{Addr: e.addr},
	})
	if r.EDNS != nil && r.EDNS.ECS != nil {
		r.EDNS.ECS.ScopePrefixLen = uint8(e.scope.Bits())
	}
	return r
}

// missFor builds the cache-miss response: NOERROR, no answers, scope 0 —
// what a snooped resolver returns when it has nothing cached. The response
// is pooled; the consumer releases it.
func missFor(q *dnswire.Message) *dnswire.Message {
	r := q.ReplyInto(dnswire.AcquireMessage())
	r.RecursionAvailable = true
	if r.EDNS != nil && r.EDNS.ECS != nil {
		r.EDNS.ECS.ScopePrefixLen = 0
	}
	return r
}
