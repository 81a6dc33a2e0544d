package serve

import (
	"sync"

	"clientmap/internal/clockx"
	"clientmap/internal/dnsnet"
	"clientmap/internal/netx"
)

// Limiter applies a per-client token bucket to both query transports,
// reusing dnsnet.TokenBucket — the same mechanism the Google Public DNS
// model rate-limits probers with. Buckets are striped across shards by
// client address, so the limiter scales with the listeners.
//
// Rejection decisions are a pure function of (client, bucket clock
// history): with a simulated clock, the same query schedule produces the
// same allow/deny sequence every run — the determinism property the
// rate-limit tests pin.
type Limiter struct {
	clock       clockx.Clock
	rate        float64
	burst       float64
	maxPerShard int
	shards      []limitShard
	mask        uint64
}

type limitShard struct {
	mu sync.Mutex
	m  map[netx.Addr]*dnsnet.TokenBucket
	// fifo orders clients by first sight for capacity eviction; a client
	// evicted under memory pressure restarts with a full bucket, which
	// fails open — the safe direction for a serving rate limit.
	fifo []netx.Addr
}

// LimiterConfig parameterizes NewLimiter. Zero values take defaults.
type LimiterConfig struct {
	// Clock drives bucket refill; nil means the wall clock.
	Clock clockx.Clock
	// Rate is tokens (queries) per second per client; <= 0 means 100.
	Rate float64
	// Burst is the bucket depth; < 1 means 2×Rate.
	Burst float64
	// Shards is the stripe count, rounded up to a power of two; <= 0
	// means 16.
	Shards int
	// MaxClientsPerShard bounds tracked clients per stripe; <= 0 means
	// 4096.
	MaxClientsPerShard int
}

// NewLimiter returns a limiter per cfg.
func NewLimiter(cfg LimiterConfig) *Limiter {
	if cfg.Clock == nil {
		cfg.Clock = clockx.Real{}
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 100
	}
	if cfg.Burst < 1 {
		cfg.Burst = 2 * cfg.Rate
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.MaxClientsPerShard <= 0 {
		cfg.MaxClientsPerShard = 4096
	}
	n := 1
	for n < cfg.Shards {
		n *= 2
	}
	l := &Limiter{
		clock:       cfg.Clock,
		rate:        cfg.Rate,
		burst:       cfg.Burst,
		maxPerShard: cfg.MaxClientsPerShard,
		shards:      make([]limitShard, n),
		mask:        uint64(n - 1),
	}
	for i := range l.shards {
		l.shards[i].m = make(map[netx.Addr]*dnsnet.TokenBucket)
	}
	return l
}

// Allow consumes one token from client's bucket, creating it (full) on
// first sight, and reports whether the query may proceed.
func (l *Limiter) Allow(client netx.Addr) bool {
	s := &l.shards[uint64(client)*0x9e3779b97f4a7c15>>40&l.mask]
	s.mu.Lock()
	b, ok := s.m[client]
	if !ok {
		b = dnsnet.NewTokenBucket(l.clock, l.rate, l.burst)
		s.m[client] = b
		s.fifo = append(s.fifo, client)
		for len(s.m) > l.maxPerShard {
			victim := s.fifo[0]
			s.fifo = s.fifo[1:]
			delete(s.m, victim)
		}
	}
	s.mu.Unlock()
	// The bucket has its own lock; consuming outside the shard lock keeps
	// one slow client from serializing its whole stripe.
	return b.Allow()
}
