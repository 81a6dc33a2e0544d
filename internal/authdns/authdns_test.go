package authdns

import (
	"context"
	"testing"

	"clientmap/internal/dnswire"
	"clientmap/internal/domains"
	"clientmap/internal/netx"
)

func newTestServer() *Server {
	return New(5, domains.Catalog())
}

func query(name string, src string) *dnswire.Message {
	q := dnswire.NewQuery(1, name, dnswire.TypeA)
	if src != "" {
		q.WithECS(netx.MustParsePrefix(src))
	}
	return q
}

func TestAnswersKnownDomain(t *testing.T) {
	s := newTestServer()
	r := s.ServeDNS(context.Background(), 0, query("www.google.com", ""))
	if r == nil || r.RCode != dnswire.RCodeSuccess || len(r.Answers) != 1 {
		t.Fatalf("bad response: %+v", r)
	}
	if !r.Authoritative {
		t.Error("AA bit not set")
	}
	a := r.Answers[0].Data.(dnswire.A)
	if a.Addr == 0 {
		t.Error("zero answer address")
	}
	d, _ := domains.ByName("www.google.com")
	if r.Answers[0].TTL != uint32(d.TTL.Seconds()) {
		t.Errorf("TTL = %d, want %v", r.Answers[0].TTL, d.TTL.Seconds())
	}
}

func TestStableAnswerAddress(t *testing.T) {
	s := newTestServer()
	r1 := s.ServeDNS(context.Background(), 0, query("facebook.com", ""))
	r2 := s.ServeDNS(context.Background(), 0, query("facebook.com", ""))
	if r1.Answers[0].Data.(dnswire.A) != r2.Answers[0].Data.(dnswire.A) {
		t.Error("answer address not stable")
	}
}

func TestNXDomain(t *testing.T) {
	s := newTestServer()
	r := s.ServeDNS(context.Background(), 0, query("unknown.example", ""))
	if r.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %v", r.RCode)
	}
}

func TestNoDataForOtherTypes(t *testing.T) {
	s := newTestServer()
	q := dnswire.NewQuery(1, "www.google.com", dnswire.TypeTXT)
	r := s.ServeDNS(context.Background(), 0, q)
	if r.RCode != dnswire.RCodeSuccess || len(r.Answers) != 0 {
		t.Errorf("TXT query: %+v", r)
	}
}

func TestECSScopeWithinPolicyBand(t *testing.T) {
	s := newTestServer()
	d, _ := domains.ByName("www.wikipedia.org")
	for i := 0; i < 200; i++ {
		src := netx.PrefixFrom(netx.Addr(uint32(i)<<10|0x0A000000), 24)
		r := s.ServeDNS(context.Background(), 0, query("www.wikipedia.org", src.String()))
		if r.EDNS == nil || r.EDNS.ECS == nil {
			t.Fatal("no ECS in response")
		}
		bits := int(r.EDNS.ECS.ScopePrefixLen)
		// Flips can stray up to 4 bits below the band floor.
		if bits < d.Scope.MinBits-4 || bits > 24 {
			t.Errorf("scope %d outside [%d,24]", bits, d.Scope.MinBits-4)
		}
	}
}

func TestNaturalScopeStableAndConsistent(t *testing.T) {
	s := newTestServer()
	// All /24s inside one MinBits block share the natural scope bits.
	base := netx.MustParsePrefix("10.32.0.0/16")
	first := s.NaturalScope("www.wikipedia.org", netx.PrefixFrom(base.Addr(), 24))
	for i := 0; i < 256; i += 17 {
		sub := netx.PrefixFrom(netx.Addr(uint32(base.Addr())+uint32(i)<<8), 24)
		got := s.NaturalScope("www.wikipedia.org", sub)
		if got.Bits() != first.Bits() {
			t.Fatalf("scope bits differ within /16: %d vs %d", got.Bits(), first.Bits())
		}
	}
	// Probing with the natural scope itself reproduces the same scope —
	// the property that makes pre-scanned probe scopes valid (App. A.2).
	again := s.NaturalScope("www.wikipedia.org", first)
	if again != first {
		t.Errorf("scope not idempotent: %v -> %v", first, again)
	}
}

func TestNaturalScopeZeroForNonECS(t *testing.T) {
	s := newTestServer()
	got := s.NaturalScope("www.amazon.com", netx.MustParsePrefix("10.0.0.0/24"))
	if got.Bits() != 0 {
		t.Errorf("non-ECS domain scope = %v", got)
	}
}

func TestScopeStabilityDistribution(t *testing.T) {
	// Across many queries for the same prefix, ~90% of response scopes
	// match the natural scope exactly (appendix A.2 / Table 2). Flips are
	// keyed on the transaction id, which real stub resolvers vary per
	// query, so the sweep varies it too.
	s := newTestServer()
	src := netx.MustParsePrefix("10.99.5.0/24")
	natural := s.NaturalScope("www.google.com", src)
	exact, within2, total := 0, 0, 1000
	for i := 0; i < total; i++ {
		q := dnswire.NewQuery(uint16(i+1), "www.google.com", dnswire.TypeA)
		q.WithECS(src)
		r := s.ServeDNS(context.Background(), 0, q)
		diff := int(r.EDNS.ECS.ScopePrefixLen) - natural.Bits()
		if diff < 0 {
			diff = -diff
		}
		if diff == 0 {
			exact++
		}
		if diff <= 2 {
			within2++
		}
	}
	if frac := float64(exact) / float64(total); frac < 0.85 || frac > 0.95 {
		t.Errorf("exact-scope fraction %.2f, want ~0.90", frac)
	}
	if frac := float64(within2) / float64(total); frac < 0.93 {
		t.Errorf("within-2 fraction %.2f, want >= 0.93", frac)
	}
}

func TestNonECSDomainScopeZeroInResponse(t *testing.T) {
	s := newTestServer()
	r := s.ServeDNS(context.Background(), 0, query("www.amazon.com", "10.0.0.0/24"))
	if r.EDNS == nil || r.EDNS.ECS == nil {
		t.Fatal("ECS echo missing")
	}
	if r.EDNS.ECS.ScopePrefixLen != 0 {
		t.Errorf("scope = %d, want 0 for non-ECS domain", r.EDNS.ECS.ScopePrefixLen)
	}
}

// NaturalScope is the package-level NaturalScope for one of s's zones by
// name, scope 0 for an unknown or non-ECS domain.
func (s *Server) NaturalScope(domain string, src netx.Prefix) netx.Prefix {
	d, ok := s.zones[dnswire.CanonicalName(domain)]
	if !ok || !d.SupportsECS {
		return netx.PrefixFrom(src.Addr(), 0)
	}
	return NaturalScope(s.seed, d, src)
}
