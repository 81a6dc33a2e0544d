package serve

import (
	"sync"
	"testing"
	"time"

	"clientmap/internal/clockx"
	"clientmap/internal/netx"
)

// limiterSchedule replays a fixed (client, advance) schedule against a
// fresh limiter on a sim clock and returns the allow/deny sequence.
func limiterSchedule(cfg LimiterConfig) []bool {
	clock := clockx.NewSim(clockx.Epoch)
	cfg.Clock = clock
	l := NewLimiter(cfg)
	clients := []netx.Addr{
		netx.AddrFrom4(10, 0, 0, 1),
		netx.AddrFrom4(10, 0, 0, 2),
		netx.AddrFrom4(192, 0, 2, 77),
	}
	var out []bool
	for step := 0; step < 300; step++ {
		c := clients[step%len(clients)]
		out = append(out, l.Allow(c))
		if step%10 == 9 {
			clock.Advance(100 * time.Millisecond)
		}
	}
	return out
}

// TestLimiterDeterministic is the satellite property: rejections are a
// pure function of (client, sim time) — the same schedule always yields
// the same allow/deny sequence.
func TestLimiterDeterministic(t *testing.T) {
	cfg := LimiterConfig{Rate: 5, Burst: 10}
	a := limiterSchedule(cfg)
	b := limiterSchedule(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical schedules: %v vs %v", i, a[i], b[i])
		}
	}
	// The schedule must exercise both outcomes to mean anything.
	var allowed, denied int
	for _, ok := range a {
		if ok {
			allowed++
		} else {
			denied++
		}
	}
	if allowed == 0 || denied == 0 {
		t.Fatalf("degenerate schedule: %d allowed, %d denied", allowed, denied)
	}
}

func TestLimiterBurstThenRefill(t *testing.T) {
	clock := clockx.NewSim(clockx.Epoch)
	l := NewLimiter(LimiterConfig{Clock: clock, Rate: 10, Burst: 3})
	c := netx.AddrFrom4(10, 0, 0, 9)
	for i := 0; i < 3; i++ {
		if !l.Allow(c) {
			t.Fatalf("burst query %d denied", i)
		}
	}
	if l.Allow(c) {
		t.Fatal("query beyond burst allowed")
	}
	// 10/s refills one token per 100ms.
	clock.Advance(100 * time.Millisecond)
	if !l.Allow(c) {
		t.Fatal("refilled token denied")
	}
	if l.Allow(c) {
		t.Fatal("second query after single refill allowed")
	}
}

func TestLimiterIsolatesClients(t *testing.T) {
	clock := clockx.NewSim(clockx.Epoch)
	l := NewLimiter(LimiterConfig{Clock: clock, Rate: 1, Burst: 1})
	a := netx.AddrFrom4(10, 0, 0, 1)
	b := netx.AddrFrom4(10, 0, 0, 2)
	if !l.Allow(a) {
		t.Fatal("first query denied")
	}
	if l.Allow(a) {
		t.Fatal("a's second query allowed")
	}
	if !l.Allow(b) {
		t.Fatal("b throttled by a's bucket")
	}
}

func TestLimiterEvictionFailsOpen(t *testing.T) {
	clock := clockx.NewSim(clockx.Epoch)
	l := NewLimiter(LimiterConfig{Clock: clock, Rate: 1, Burst: 1, Shards: 1, MaxClientsPerShard: 2})
	a := netx.AddrFrom4(10, 0, 0, 1)
	if !l.Allow(a) || l.Allow(a) {
		t.Fatal("setup: a should spend its only token")
	}
	// Two more clients push a out of the single 2-entry shard.
	l.Allow(netx.AddrFrom4(10, 0, 0, 2))
	l.Allow(netx.AddrFrom4(10, 0, 0, 3))
	if got := l.Clients(); got != 2 {
		t.Fatalf("tracked clients = %d, want 2", got)
	}
	// a returns with a fresh (full) bucket: evicted state fails open.
	if !l.Allow(a) {
		t.Fatal("evicted client still throttled")
	}
}

func TestLimiterDefaults(t *testing.T) {
	l := NewLimiter(LimiterConfig{})
	if l.rate != 100 || l.burst != 200 || len(l.shards) != 16 || l.maxPerShard != 4096 {
		t.Fatalf("defaults = rate %v burst %v shards %d max %d", l.rate, l.burst, len(l.shards), l.maxPerShard)
	}
	// Shard count rounds up to a power of two.
	if l := NewLimiter(LimiterConfig{Shards: 5}); len(l.shards) != 8 {
		t.Fatalf("Shards:5 rounded to %d", len(l.shards))
	}
}

func TestLimiterConcurrent(t *testing.T) {
	clock := clockx.NewSim(clockx.Epoch)
	l := NewLimiter(LimiterConfig{Clock: clock, Rate: 1000, Burst: 1000})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				l.Allow(netx.Addr(uint32(g*1000 + i%100)))
			}
		}(g)
	}
	wg.Wait()
	if l.Clients() == 0 {
		t.Fatal("no clients tracked")
	}
}

// Clients returns the number of tracked client buckets.
func (l *Limiter) Clients() int {
	total := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		total += len(s.m)
		s.mu.Unlock()
	}
	return total
}
