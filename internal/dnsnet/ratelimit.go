package dnsnet

import (
	"sync"
	"time"

	"clientmap/internal/clockx"
)

// TokenBucket is a clock-driven token-bucket rate limiter. The Google
// Public DNS model uses one per (source, transport) to reproduce the
// paper's observation that repeated UDP probing of the same domains trips
// a limit far below the documented 1,500 QPS, while TCP does not
// (§3.1.1); the probe scheduler uses one to hold each vantage point to its
// configured 50 prefixes/second/domain rate.
type TokenBucket struct {
	mu     sync.Mutex
	clock  clockx.Clock
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewTokenBucket returns a bucket refilled at rate tokens/second with the
// given burst capacity, starting full.
func NewTokenBucket(clock clockx.Clock, rate, burst float64) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{
		clock:  clock,
		rate:   rate,
		burst:  burst,
		tokens: burst,
		last:   clock.Now(),
	}
}

func (b *TokenBucket) refillLocked(now time.Time) {
	elapsed := now.Sub(b.last).Seconds()
	if elapsed <= 0 {
		return
	}
	b.tokens += elapsed * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
}

// Tokens reports the current token count, refilled to the bucket's clock
// — the occupancy reading the rate-limit metrics observe.
func (b *TokenBucket) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(b.clock.Now())
	return b.tokens
}

// Allow consumes one token if available and reports whether it succeeded.
func (b *TokenBucket) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(b.clock.Now())
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Wait blocks (on the bucket's clock) until a token is available, then
// consumes it. On a simulated clock this advances simulated time, which is
// how a 120-hour probing campaign "takes" 120 simulated hours.
func (b *TokenBucket) Wait() {
	for {
		b.mu.Lock()
		now := b.clock.Now()
		b.refillLocked(now)
		if b.tokens >= 1 {
			b.tokens--
			b.mu.Unlock()
			return
		}
		need := (1 - b.tokens) / b.rate
		b.mu.Unlock()
		b.clock.Sleep(time.Duration(need * float64(time.Second)))
	}
}
