package cacheprobe_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/dnsnet"
	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
	"clientmap/internal/sim"
	"clientmap/internal/world"
)

// flakyExchanger drops every nth exchange, injecting the query loss live
// probing sees.
type flakyExchanger struct {
	inner dnsnet.Exchanger
	n     int64
	every int64
}

func (f *flakyExchanger) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	if atomic.AddInt64(&f.n, 1)%f.every == 0 {
		return nil, dnsnet.ErrTimeout
	}
	return f.inner.Exchange(ctx, server, q)
}

func TestCampaignSurvivesQueryLoss(t *testing.T) {
	s, err := sim.New(sim.Config{Seed: 303, Scale: world.ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	// Wrap every vantage with a 20% drop rate.
	vantages := s.Vantages
	for i := range vantages {
		vantages[i].Exchanger = &flakyExchanger{inner: vantages[i].Exchanger, every: 5}
	}
	cfg := s.ProberConfig()
	cfg.Duration = 24 * time.Hour
	cfg.Passes = 3
	auth := cacheprobe.Authoritative{
		Exchanger: &flakyExchanger{inner: s.Net.Client(netx.AddrFrom4(100, 64, 255, 9)), every: 5},
		Server:    sim.AuthServer,
	}
	prober := cacheprobe.NewProber(cfg, vantages, auth)
	camp, err := runStages(prober, cfg, s.PoPCoords())
	if err != nil {
		t.Fatal(err)
	}
	// Dropped queries are misses, not failures: the campaign completes and
	// still finds plenty of activity (redundancy absorbs the losses).
	if len(camp.ActiveScopes()) == 0 {
		t.Error("lossy campaign found nothing")
	}
	if len(camp.PoPs) < 10 {
		t.Errorf("lossy campaign calibrated only %d PoPs", len(camp.PoPs))
	}
}

func TestDiscoverPoPsKeepsOneVantagePerPoP(t *testing.T) {
	s, err := sim.New(sim.Config{Seed: 303, Scale: world.ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	prober := s.Prober(s.ProberConfig())
	pops, err := prober.DiscoverPoPs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// More vantages than PoPs: several cloud regions route to the same
	// site, and discovery deduplicates.
	if len(pops) >= len(s.Vantages) {
		t.Errorf("discovered %d PoPs from %d vantages; expected deduplication", len(pops), len(s.Vantages))
	}
	seen := map[string]bool{}
	for pop, v := range pops {
		if v == nil {
			t.Fatalf("PoP %s has nil vantage", pop)
		}
		if seen[v.Name] {
			t.Errorf("vantage %s assigned to two PoPs", v.Name)
		}
		seen[v.Name] = true
	}
}

func TestDiscoverPoPsAllVantagesDead(t *testing.T) {
	s, err := sim.New(sim.Config{Seed: 303, Scale: world.ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	vantages := s.Vantages
	for i := range vantages {
		vantages[i].Exchanger = &flakyExchanger{inner: vantages[i].Exchanger, every: 1} // drop all
	}
	prober := cacheprobe.NewProber(s.ProberConfig(), vantages, cacheprobe.Authoritative{
		Exchanger: s.Net.Client(0), Server: sim.AuthServer,
	})
	if _, err := prober.DiscoverPoPs(context.Background()); err == nil {
		t.Error("discovery with no reachable PoPs should fail")
	}
}

func TestPreScanSkipsByScope(t *testing.T) {
	s, err := sim.New(sim.Config{Seed: 303, Scale: world.ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.ProberConfig()
	prober := s.Prober(cfg)
	camp := &cacheprobe.Campaign{ScopesByDomain: make(map[string][]netx.Prefix)}
	if err := prober.PreScan(context.Background(), camp); err != nil {
		t.Fatal(err)
	}

	total24 := 0
	for _, blk := range cfg.Universe {
		total24 += blk.NumSlash24s()
	}
	// The skip optimization: far fewer authoritative queries than /24s ×
	// domains (appendix A.2's justification).
	if camp.PreScanQueries >= total24*len(cfg.Domains) {
		t.Errorf("pre-scan used %d queries for %d /24-domain pairs; no reduction",
			camp.PreScanQueries, total24*len(cfg.Domains))
	}

	for domain, scopes := range camp.ScopesByDomain {
		// Scopes are sorted; occasional overlaps are possible when a
		// flipped coarse response scope anchors before its query prefix.
		overlaps := 0
		for i := 1; i < len(scopes); i++ {
			if scopes[i-1].Addr() > scopes[i].Addr() {
				t.Fatalf("%s: scopes not sorted at %d", domain, i)
			}
			if scopes[i-1].ContainsPrefix(scopes[i]) || scopes[i].ContainsPrefix(scopes[i-1]) {
				overlaps++
			}
		}
		if overlaps > len(scopes)/5 {
			t.Errorf("%s: %d of %d adjacent scope pairs overlap; flips should be rare", domain, overlaps, len(scopes))
		}
		// Together they cover the whole universe.
		var covered netx.Set24
		for _, sc := range scopes {
			covered.AddPrefix(sc)
		}
		if covered.Len() < total24 {
			t.Errorf("%s: scopes cover %d of %d /24s", domain, covered.Len(), total24)
		}
	}
}

func TestCampaignPassAccounting(t *testing.T) {
	s, err := sim.New(sim.Config{Seed: 303, Scale: world.ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.ProberConfig()
	cfg.Duration = 30 * time.Hour
	cfg.Passes = 5
	camp, err := runStages(s.Prober(cfg), cfg, s.PoPCoords())
	if err != nil {
		t.Fatal(err)
	}
	if camp.Passes != 5 || len(camp.PassTimes) != 5 {
		t.Fatalf("pass accounting: %d passes, %d times", camp.Passes, len(camp.PassTimes))
	}
	for i := 1; i < len(camp.PassTimes); i++ {
		if !camp.PassTimes[i].After(camp.PassTimes[i-1]) {
			t.Error("pass times not increasing")
		}
	}
	// Hit pass masks stay within the pass count, and hit times fall inside
	// the campaign window.
	end := camp.PassTimes[0].Add(cfg.Duration)
	for _, hits := range camp.Hits {
		for p, h := range hits {
			if h.PassMask == 0 || h.PassMask>>uint(camp.Passes) != 0 {
				t.Fatalf("%v: pass mask %b out of range", p, h.PassMask)
			}
			if len(h.Times) == 0 {
				t.Fatalf("%v: no hit times", p)
			}
			for _, ts := range h.Times {
				if ts.Before(camp.PassTimes[0]) || ts.After(end) {
					t.Fatalf("%v: hit time %v outside campaign", p, ts)
				}
			}
		}
	}
}

func TestLowerBound24Count(t *testing.T) {
	camp := &cacheprobe.Campaign{Hits: map[string]map[netx.Prefix]*cacheprobe.Hit{
		"d": {
			netx.MustParsePrefix("10.0.0.0/16"): {},
			netx.MustParsePrefix("10.0.1.0/24"): {}, // nested: no extra
			netx.MustParsePrefix("10.1.0.0/24"): {},
			netx.MustParsePrefix("10.2.0.0/20"): {},
		},
	}}
	if got := camp.LowerBound24Count(); got != 3 {
		t.Errorf("lower bound = %d, want 3 (the /16, the /24, the /20)", got)
	}
	if got := camp.Upper24s().Len(); got != 256+1+16 {
		t.Errorf("upper bound = %d, want 273", got)
	}
}
