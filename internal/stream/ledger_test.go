package stream

import (
	"bytes"
	"testing"

	"clientmap/internal/netx"
)

func mustPrefix(t *testing.T, addr uint32, bits int) netx.Prefix {
	t.Helper()
	return netx.PrefixFrom(netx.Addr(addr), bits)
}

func TestLedgerFreshAndDecay(t *testing.T) {
	l := NewLedger(3)
	s1 := mustPrefix(t, 0x0A000000, 24)
	s2 := mustPrefix(t, 0x0A000100, 24)

	if !l.AddHit("a.example", s1, "fra", 0) {
		t.Fatal("first hit not fresh")
	}
	// Freshness is per (domain, scope): the same scope under a second
	// domain is a new ledger entry.
	if !l.AddHit("b.example", s1, "lhr", 0) {
		t.Fatal("same scope under second domain not fresh")
	}
	if !l.AddHit("a.example", s2, "fra", 1) {
		t.Fatal("distinct scope not fresh")
	}
	if got := l.ActiveScopes(); got != 2 {
		t.Fatalf("ActiveScopes = %d, want 2", got)
	}
	if !l.PoPLive("fra") || !l.PoPLive("lhr") {
		t.Fatal("PoPs with evidence not live")
	}
	if l.PoPLive("gru") {
		t.Fatal("PoP without evidence live")
	}

	// Hour 3 with TTL 3: s1's hour-0 evidence ages out (both domain
	// entries), s2's hour-1 survives.
	if decayed := l.DecayTo(3); decayed != 2 {
		t.Fatalf("DecayTo(3) decayed %d scope entries, want 2 (s1 under both domains)", decayed)
	}
	if got := l.ActiveScopes(); got != 1 {
		t.Fatalf("ActiveScopes after decay = %d, want 1", got)
	}
	if l.PoPLive("lhr") {
		t.Fatal("lhr still live after its only evidence decayed")
	}
}

func TestLedgerFreshAfterDecayOut(t *testing.T) {
	// A scope that decays out and is later re-hit reports fresh again —
	// it re-enters the map as a new scope.
	l := NewLedger(2)
	s := mustPrefix(t, 0x0B000000, 24)
	if !l.AddHit("a.example", s, "fra", 0) {
		t.Fatal("first hit not fresh")
	}
	l.DecayTo(5)
	if !l.AddHit("a.example", s, "fra", 6) {
		t.Fatal("re-hit after decay-out not fresh")
	}
}

func TestLedgerDecayOutCountsPerDomainScope(t *testing.T) {
	l := NewLedger(2)
	s := mustPrefix(t, 0x0C000000, 24)
	l.AddHit("a.example", s, "fra", 0)
	l.AddHit("b.example", s, "fra", 0)
	// Both (domain, scope) entries decay in the same step.
	if decayed := l.DecayTo(3); decayed != 2 {
		t.Fatalf("decayed = %d, want 2 (one per domain entry)", decayed)
	}
}

func TestLedgerCoveredLive(t *testing.T) {
	l := NewLedger(6)
	scope := mustPrefix(t, 0x0A000000, 22) // covers 10.0.0.0 - 10.0.3.255
	l.AddHit("a.example", scope, "fra", 2)
	l.AddHit("a.example", scope, "fra", 5)

	last, covered := l.CoveredLive(netx.Addr(0x0A000280))
	if !covered || last != 5 {
		t.Fatalf("CoveredLive inside scope = %d,%v, want 5,true", last, covered)
	}
	if _, covered := l.CoveredLive(netx.Addr(0x0A000400)); covered {
		t.Fatal("address outside scope reported covered")
	}
}

func TestLedgerPoPLastHit(t *testing.T) {
	l := NewLedger(6)
	l.AddHit("a.example", mustPrefix(t, 0x0A000000, 24), "fra", 1)
	l.AddHit("b.example", mustPrefix(t, 0x0A000100, 24), "fra", 4)
	last, live := l.PoPLastHit("fra")
	if !live || last != 4 {
		t.Fatalf("PoPLastHit = %d,%v, want 4,true", last, live)
	}
	if _, live := l.PoPLastHit("gru"); live {
		t.Fatal("PoP without evidence reported live")
	}
}

func TestLedgerDNS(t *testing.T) {
	l := NewLedger(3)
	p := netx.Addr(0x08080800).Slash24()
	l.AddDNS(p, 0)
	if got := l.DNSActive(); got != 1 {
		t.Fatalf("DNSActive = %d, want 1", got)
	}
	l.DecayTo(4)
	if got := l.DNSActive(); got != 0 {
		t.Fatalf("DNSActive after decay = %d, want 0", got)
	}
}

func TestServeScopesDeterministicAndSorted(t *testing.T) {
	build := func() *Ledger {
		l := NewLedger(6)
		l.AddHit("b.example", mustPrefix(t, 0x0A000100, 24), "lhr", 1)
		l.AddHit("a.example", mustPrefix(t, 0x0A000000, 24), "fra", 0)
		l.AddHit("a.example", mustPrefix(t, 0x0A000100, 24), "gru", 2)
		l.AddHit("a.example", mustPrefix(t, 0x0A000000, 23), "fra", 2)
		l.AddDNS(netx.Addr(0x08080800).Slash24(), 1)
		return l
	}
	l := build()
	rows := l.ServeScopes(2)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Scope.Compare(rows[i].Scope) >= 0 {
			t.Fatalf("rows not sorted: %v before %v", rows[i-1].Scope, rows[i].Scope)
		}
	}
	// The merged scope at 10.0.1.0/24 saw two domains and two PoPs.
	var merged bool
	for _, r := range rows {
		if r.Scope == mustPrefix(t, 0x0A000100, 24) {
			merged = true
			if r.Domains != 2 || len(r.PoPs) != 2 || r.Hits != 2 {
				t.Fatalf("merged row = %+v, want 2 domains, 2 PoPs, 2 hits", r)
			}
		}
		if r.Confidence <= 0 || r.Confidence >= 1 {
			t.Fatalf("confidence %v outside (0,1)", r.Confidence)
		}
	}
	if !merged {
		t.Fatal("missing merged scope row")
	}

	// Identical ledgers marshal to identical bytes (map iteration order
	// cannot leak into the encoding).
	d1, h1 := build().MarshalLedger()
	d2, h2 := build().MarshalLedger()
	if !bytes.Equal(d1, d2) || h1 != h2 {
		t.Fatal("MarshalLedger not deterministic")
	}
}
