package gpdns

import (
	"context"
	"testing"
	"time"

	"clientmap/internal/clockx"
	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
)

// TestPoolLookupAllocs gates the cache read path: a warm lookup costs
// nothing — the striped shards hand back the entry by value.
func TestPoolLookupAllocs(t *testing.T) {
	p := newPool()
	now := time.Unix(0, 0)
	e := entry{
		name:   "en.wikipedia.org",
		addr:   netx.MustParseAddr("198.51.100.7"),
		scope:  netx.MustParsePrefix("198.51.100.0/20"),
		expiry: now.Add(time.Hour),
	}
	p.insert(e, now)
	src := netx.MustParsePrefix("198.51.100.0/24")
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := p.lookup("en.wikipedia.org", src, now); !ok {
			t.Fatal("warm lookup missed")
		}
	})
	if allocs != 0 {
		t.Errorf("pool.lookup allocates %.1f per run, want 0", allocs)
	}
}

// TestPoolInsertAllocs gates the cache write path in steady state:
// replacing a same-scope entry for an interned name reuses the entry
// slice.
func TestPoolInsertAllocs(t *testing.T) {
	p := newPool()
	now := time.Unix(0, 0)
	e := entry{
		name:   "en.wikipedia.org",
		addr:   netx.MustParseAddr("198.51.100.7"),
		scope:  netx.MustParsePrefix("198.51.100.0/20"),
		expiry: now.Add(time.Hour),
	}
	p.insert(e, now) // warm the map slot and grow the entry slice
	allocs := testing.AllocsPerRun(1000, func() {
		p.insert(e, now)
	})
	if allocs != 0 {
		t.Errorf("steady-state pool.insert allocates %.1f per run, want 0", allocs)
	}
}

// TestSnoopRoundTripAllocs gates one full probe iteration against the
// resolver simulator: build the RD=0 query in a pooled message, serve it
// from a warm cache, read the answer, release the response. One
// allocation is budgeted — boxing the cache entry's A record into the
// answer's RData interface.
func TestSnoopRoundTripAllocs(t *testing.T) {
	clock := clockx.NewSim(time.Unix(0, 0))
	srv, _, _ := testServer(t, clock)
	src := netx.MustParsePrefix("100.70.2.0/24")

	// A scheduled context makes pool selection a pure function of the
	// transaction id (as campaign probes are), so the fill and every
	// snoop below land on the same pool.
	ctx := clockx.WithTime(context.Background(), clock.Now())

	// Warm the cache with one recursive fill.
	fill := dnswire.NewQuery(7, "www.google.com", dnswire.TypeA).WithECS(src)
	if r := srv.ServeDNS(ctx, vantageAddr, fill); r == nil || len(r.Answers) == 0 {
		t.Fatal("recursive fill failed")
	}
	q := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(q)
	allocs := testing.AllocsPerRun(1000, func() {
		q.SetQuery(7, "www.google.com", dnswire.TypeA)
		q.RecursionDesired = false
		q.WithECS(src)
		resp := srv.ServeDNS(ctx, vantageAddr, q)
		if resp == nil {
			t.Fatal("snoop dropped")
		}
		hit := len(resp.Answers) > 0
		dnswire.ReleaseMessage(resp)
		if !hit {
			t.Fatal("warm snoop missed")
		}
	})
	if allocs > 1 {
		t.Errorf("snoop round trip allocates %.1f per run, want <= 1", allocs)
	}
}
