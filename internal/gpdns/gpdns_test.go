package gpdns

import (
	"context"
	"testing"
	"time"

	"clientmap/internal/anycast"
	"clientmap/internal/authdns"
	"clientmap/internal/clockx"
	"clientmap/internal/dnswire"
	"clientmap/internal/domains"
	"clientmap/internal/netx"
	"clientmap/internal/traffic"
	"clientmap/internal/world"
)

const vantageAddr = netx.Addr(0x64400001) // 100.64.0.1

func testServer(t testing.TB, clock clockx.Clock) (*Server, *authdns.Server, *anycast.Router) {
	t.Helper()
	router := anycast.NewRouter(21, anycast.Catalog())
	srv := NewServer(Config{Clock: clock}, router)
	auth := authdns.New(21, domains.Catalog())
	srv.SetUpstream(auth)
	srv.RegisterVantage(vantageAddr, 0) // PoP 0 = dls
	return srv, auth, router
}

func snoop(name string, src netx.Prefix, id uint16) *dnswire.Message {
	q := dnswire.NewQuery(id, name, dnswire.TypeA).WithECS(src)
	q.RecursionDesired = false
	return q
}

func TestMyAddrRevealsPoP(t *testing.T) {
	srv, _, router := testServer(t, clockx.NewSim(time.Time{}))
	q := dnswire.NewQuery(1, MyAddrDomain, dnswire.TypeTXT)
	r := srv.ServeDNS(context.Background(), vantageAddr, q)
	if r == nil || len(r.Answers) != 1 {
		t.Fatalf("no answer: %+v", r)
	}
	txt, ok := r.Answers[0].Data.(dnswire.TXT)
	if !ok || len(txt.Strings) != 1 || txt.Strings[0] != router.PoPs()[0].Name {
		t.Errorf("TXT = %+v, want PoP name %q", r.Answers[0].Data, router.PoPs()[0].Name)
	}
}

func TestUnroutedSourceDropped(t *testing.T) {
	srv, _, _ := testServer(t, clockx.NewSim(time.Time{}))
	q := dnswire.NewQuery(1, "www.google.com", dnswire.TypeA)
	if r := srv.ServeDNS(context.Background(), netx.MustParseAddr("203.0.113.1"), q); r != nil {
		t.Error("query from unrouted source was answered")
	}
}

func TestRecursiveFillThenSnoop(t *testing.T) {
	clock := clockx.NewSim(time.Time{})
	srv, _, _ := testServer(t, clock)
	src := netx.MustParsePrefix("100.70.2.0/24")

	// Snoop before any fill: miss in every pool.
	for i := 0; i < 4; i++ {
		r := srv.ServeDNS(context.Background(), vantageAddr, snoop("www.google.com", src, uint16(i)))
		if r == nil || len(r.Answers) != 0 {
			t.Fatalf("cold snoop returned answers: %+v", r)
		}
		if r.EDNS.ECS.ScopePrefixLen != 0 {
			t.Fatalf("cold snoop scope = %d", r.EDNS.ECS.ScopePrefixLen)
		}
	}

	// Recursive query fills exactly one pool.
	rq := dnswire.NewQuery(9, "www.google.com", dnswire.TypeA).WithECS(src)
	r := srv.ServeDNS(context.Background(), vantageAddr, rq)
	if r == nil || len(r.Answers) != 1 {
		t.Fatalf("recursive query failed: %+v", r)
	}
	scope := r.EDNS.ECS.ScopePrefixLen
	if scope == 0 {
		t.Fatal("recursive response has zero scope for ECS domain")
	}

	// Redundant snooping (one per pool) finds the entry; the scope echoes
	// the cached one.
	hits := 0
	for i := 0; i < PoolsPerPoP; i++ {
		r := srv.ServeDNS(context.Background(), vantageAddr, snoop("www.google.com", src, uint16(20+i)))
		if r != nil && len(r.Answers) == 1 {
			hits++
			if r.EDNS.ECS.ScopePrefixLen != scope {
				t.Errorf("snoop scope %d, cached %d", r.EDNS.ECS.ScopePrefixLen, scope)
			}
			if !r.RecursionAvailable {
				t.Error("RA bit not set")
			}
		}
	}
	if hits != 1 {
		t.Errorf("entry found in %d pools, want exactly 1", hits)
	}
}

func TestSnoopDoesNotPolluteAndTTLExpires(t *testing.T) {
	clock := clockx.NewSim(time.Time{})
	srv, _, _ := testServer(t, clock)
	src := netx.MustParsePrefix("100.71.3.0/24")
	ctx := context.Background()

	// Fill.
	srv.ServeDNS(ctx, vantageAddr, dnswire.NewQuery(1, "www.youtube.com", dnswire.TypeA).WithECS(src))

	// Find the pool with the entry and note its TTL.
	var ttl0 uint32
	found := false
	for i := 0; i < 3; i++ {
		r := srv.ServeDNS(ctx, vantageAddr, snoop("www.youtube.com", src, uint16(10+i)))
		if len(r.Answers) == 1 {
			ttl0 = r.Answers[0].TTL
			found = true
		}
	}
	if !found {
		t.Fatal("fill not visible to snoop")
	}

	// TTL decrements on the simulated clock.
	clock.Advance(90 * time.Second)
	var ttl1 uint32
	for i := 0; i < 3; i++ {
		r := srv.ServeDNS(ctx, vantageAddr, snoop("www.youtube.com", src, uint16(20+i)))
		if len(r.Answers) == 1 {
			ttl1 = r.Answers[0].TTL
		}
	}
	if ttl1 == 0 || ttl1 >= ttl0 {
		t.Errorf("TTL did not decrement: %d -> %d", ttl0, ttl1)
	}

	// After expiry every pool misses, and snooping still does not refill.
	clock.Advance(10 * time.Minute)
	for i := 0; i < 6; i++ {
		r := srv.ServeDNS(ctx, vantageAddr, snoop("www.youtube.com", src, uint16(30+i)))
		if len(r.Answers) != 0 {
			t.Fatal("entry survived past TTL or snoop refilled cache")
		}
	}
}

func TestDefaultECSFromSource(t *testing.T) {
	clock := clockx.NewSim(time.Time{})
	srv, _, _ := testServer(t, clock)
	ctx := context.Background()
	// No ECS in query: Google derives /24 from the source address.
	q := dnswire.NewQuery(5, "www.google.com", dnswire.TypeA)
	r := srv.ServeDNS(ctx, vantageAddr, q)
	if r == nil || len(r.Answers) != 1 {
		t.Fatalf("recursive no-ECS query failed: %+v", r)
	}
	// The fill is cached under the source's /24 region: a snoop with that
	// /24 as ECS finds it.
	src := netx.PrefixFrom(vantageAddr, 24)
	hits := 0
	for i := 0; i < 3; i++ {
		r := srv.ServeDNS(ctx, vantageAddr, snoop("www.google.com", src, uint16(40+i)))
		if len(r.Answers) == 1 {
			hits++
		}
	}
	if hits == 0 {
		t.Error("entry cached under source /24 not found")
	}
}

func TestUDPRateLimitTripsTCPDoesNot(t *testing.T) {
	clock := clockx.NewSim(time.Time{})
	srv, _, _ := testServer(t, clock)
	ctx := context.Background()
	udp, tcp := srv.UDP(), srv.TCP()

	dropped := 0
	for i := 0; i < 50; i++ {
		q := snoop("www.google.com", netx.MustParsePrefix("100.72.0.0/24"), uint16(i))
		if udp.ServeDNS(ctx, vantageAddr, q) == nil {
			dropped++
		}
	}
	if dropped < 30 {
		t.Errorf("UDP repeated-domain probing dropped only %d/50", dropped)
	}

	for i := 0; i < 50; i++ {
		q := snoop("www.google.com", netx.MustParsePrefix("100.72.1.0/24"), uint16(i))
		if tcp.ServeDNS(ctx, vantageAddr, q) == nil {
			t.Fatalf("TCP probe %d dropped below 1500 QPS", i)
		}
	}
	_, _, limited := srv.Stats()
	if limited == 0 {
		t.Error("limited counter not incremented")
	}
}

func lazySetup(t testing.TB, seed int) (*Server, *traffic.Model, *anycast.Router) {
	t.Helper()
	w, err := world.Generate(world.Config{Seed: 31, Scale: world.ScaleTiny, Params: world.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	router := anycast.NewRouter(31, anycast.Catalog())
	model := traffic.NewModel(w, router, traffic.DefaultTunables())
	clock := clockx.NewSim(time.Time{})
	clock.Set(clockx.Epoch.Add(12 * time.Hour))
	srv := NewServer(Config{Clock: clock}, router)
	srv.SetLazyFill(NewLazyFill(model, PoolsPerPoP))
	return srv, model, router
}

func TestLazyFillHitsBusyPrefixMissesEmptySpace(t *testing.T) {
	srv, model, router := lazySetup(t, 31)
	ctx := context.Background()

	// The prefix with the highest Google-bound query rate for the probed
	// domain is essentially always cached at its PoP.
	google, _ := domains.ByName("www.google.com")
	var busy *world.PrefixInfo
	var busyRate float64
	for i := range model.W.Prefixes {
		pi := &model.W.Prefixes[i]
		if rate := model.GoogleDNSRate(pi, google); rate > busyRate {
			busy, busyRate = pi, rate
		}
	}
	pop := router.PoPForClient(busy.P, busy.Coord)
	srv.RegisterVantage(vantageAddr, pop)

	hits := 0
	for i := 0; i < 6; i++ {
		r := srv.ServeDNS(ctx, vantageAddr, snoop("www.google.com", busy.P.Prefix(), uint16(i)))
		if r != nil && len(r.Answers) == 1 {
			hits++
			if r.EDNS.ECS.ScopePrefixLen == 0 {
				t.Error("lazy hit returned scope 0 for ECS domain")
			}
			if r.Answers[0].TTL == 0 {
				t.Error("lazy hit has zero TTL")
			}
		}
	}
	if hits == 0 {
		t.Errorf("busiest prefix (%.0f users, rate %.2e/s) never hit cache", busy.Users, busyRate)
	}

	// Unallocated space never hits.
	empty := netx.MustParsePrefix("9.9.9.0/24")
	if _, ok := model.W.PrefixInfoOf(empty.FirstSlash24()); ok {
		t.Fatal("test prefix unexpectedly allocated")
	}
	for i := 0; i < 6; i++ {
		r := srv.ServeDNS(ctx, vantageAddr, snoop("www.google.com", empty, uint16(50+i)))
		if r != nil && len(r.Answers) != 0 {
			t.Fatal("unallocated prefix produced a cache hit")
		}
	}
}

func TestLazyFillDeterministic(t *testing.T) {
	run := func() []int {
		srv, model, router := lazySetup(t, 31)
		ctx := context.Background()
		var out []int
		for i := 0; i < 40 && i < len(model.W.Prefixes); i++ {
			pi := &model.W.Prefixes[i*3%len(model.W.Prefixes)]
			pop := router.PoPForClient(pi.P, pi.Coord)
			srv.RegisterVantage(vantageAddr, pop)
			hits := 0
			for j := 0; j < 3; j++ {
				r := srv.ServeDNS(ctx, vantageAddr, snoop("www.google.com", pi.P.Prefix(), uint16(j)))
				if r != nil && len(r.Answers) == 1 {
					hits++
				}
			}
			out = append(out, hits)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lazy fill not deterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestLazyFillNonECSDomainScopeZero(t *testing.T) {
	srv, _, _ := lazySetup(t, 31)
	srv.RegisterVantage(vantageAddr, 0)
	r := srv.ServeDNS(context.Background(), vantageAddr, snoop("www.amazon.com", netx.MustParsePrefix("100.73.0.0/24"), 1))
	if r == nil || len(r.Answers) != 1 {
		t.Fatal("non-ECS popular domain should be warm")
	}
	if r.EDNS.ECS.ScopePrefixLen != 0 {
		t.Errorf("non-ECS domain scope = %d, want 0", r.EDNS.ECS.ScopePrefixLen)
	}
}

func TestNXDomainPassthrough(t *testing.T) {
	clock := clockx.NewSim(time.Time{})
	srv, _, _ := testServer(t, clock)
	q := dnswire.NewQuery(3, "no.such.zone.example", dnswire.TypeA)
	r := srv.ServeDNS(context.Background(), vantageAddr, q)
	if r == nil || r.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %v, want NXDOMAIN", r.RCode)
	}
}
