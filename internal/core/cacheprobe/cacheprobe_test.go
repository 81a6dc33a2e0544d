package cacheprobe_test

import (
	"context"
	"testing"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/geo"
	"clientmap/internal/netx"
	"clientmap/internal/sim"
	"clientmap/internal/world"
)

// runStages drives p through every stage the way the pipeline does:
// DiscoverPoPs → PreScan → Calibrate → BuildAssignments →
// ProbePassDelta×cfg.Passes → FinishProbing. cfg is the one p was built
// with.
func runStages(p *cacheprobe.Prober, cfg cacheprobe.Config, popCoords map[string]geo.Coord) (*cacheprobe.Campaign, error) {
	ctx := context.Background()
	camp := cacheprobe.NewCampaign()
	pops, err := p.DiscoverPoPs(ctx)
	if err != nil {
		return nil, err
	}
	if err := p.PreScan(ctx, camp); err != nil {
		return nil, err
	}
	p.Calibrate(ctx, pops, camp)
	start := cfg.Clock.Now()
	asg := p.BuildAssignments(pops, popCoords, camp)
	for pass := 0; pass < cfg.Passes; pass++ {
		if _, err := p.ProbePassDelta(ctx, pops, asg, pass, start, camp); err != nil {
			return nil, err
		}
	}
	p.FinishProbing(start)
	return camp, nil
}

func runCampaign(t testing.TB, seed int, mutate func(*cacheprobe.Config)) (*cacheprobe.Campaign, *sim.System) {
	t.Helper()
	s, err := sim.New(sim.Config{Seed: 101, Scale: world.ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.ProberConfig()
	cfg.Duration = 24 * time.Hour
	cfg.Passes = 3
	if mutate != nil {
		mutate(&cfg)
	}
	camp, err := runStages(s.Prober(cfg), cfg, s.PoPCoords())
	if err != nil {
		t.Fatal(err)
	}
	return camp, s
}

func TestCampaignEndToEnd(t *testing.T) {
	camp, s := runCampaign(t, 101, nil)

	// Stage 1: multiple PoPs calibrated.
	if len(camp.PoPs) < 10 {
		t.Errorf("only %d PoPs discovered, want most of the 22 probed", len(camp.PoPs))
	}
	for pop, cal := range camp.PoPs {
		if cal.RadiusKm <= 0 || cal.RadiusKm > cacheprobe.MaxServiceRadiusKm {
			t.Errorf("PoP %s radius %v out of range", pop, cal.RadiusKm)
		}
	}

	// Stage 2: scopes cover the universe compactly.
	for _, d := range s.ProbeDomains() {
		scopes := camp.ScopesByDomain[d.Name]
		if len(scopes) == 0 {
			t.Fatalf("no scopes for %s", d.Name)
		}
		for _, sc := range scopes {
			if sc.Bits() < 12 || sc.Bits() > 24 {
				t.Errorf("%s: scope %v outside sane range", d.Name, sc)
			}
		}
	}
	// Wikipedia's coarse scopes mean far fewer scopes than Google's.
	if g, w := len(camp.ScopesByDomain["www.google.com"]), len(camp.ScopesByDomain["www.wikipedia.org"]); w >= g {
		t.Errorf("wikipedia scopes (%d) not fewer than google scopes (%d)", w, g)
	}

	// Stage 4: hits exist and all have positive response scope.
	if len(camp.ActiveScopes()) == 0 {
		t.Fatal("campaign found no active prefixes")
	}
	for domain, hits := range camp.Hits {
		for p, h := range hits {
			if p.Bits() == 0 {
				t.Fatalf("%s: hit with scope 0 recorded", domain)
			}
			if h.Count <= 0 {
				t.Fatalf("%s: hit %v with non-positive count", domain, p)
			}
		}
	}
	if camp.ProbesSent == 0 || camp.PreScanQueries == 0 {
		t.Error("probe accounting empty")
	}
}

func TestCampaignRecallAndPrecision(t *testing.T) {
	camp, s := runCampaign(t, 101, nil)
	upper := camp.Upper24s()

	// Recall: most ground-truth client activity (user-weighted) is inside
	// detected prefixes.
	var totalUsers, coveredUsers float64
	for i := range s.World.Prefixes {
		pi := &s.World.Prefixes[i]
		if !pi.HasClients() {
			continue
		}
		totalUsers += float64(pi.Users)
		if upper.Contains(pi.P) {
			coveredUsers += float64(pi.Users)
		}
	}
	if frac := coveredUsers / totalUsers; frac < 0.5 {
		t.Errorf("user-weighted recall %.2f too low", frac)
	}

	// The technique claims activity only where the world has announced
	// space (scopes cover announced blocks; precision at the scope level).
	misses := 0
	for _, scope := range camp.ActiveScopes() {
		anyAnnounced := false
		scope.Slash24s(func(p netx.Slash24) bool {
			if _, ok := s.World.PrefixInfoOf(p); ok {
				anyAnnounced = true
				return false
			}
			return true
		})
		if !anyAnnounced {
			misses++
		}
	}
	if misses > len(camp.ActiveScopes())/20 {
		t.Errorf("%d/%d hit scopes contain no announced space", misses, len(camp.ActiveScopes()))
	}

	// Lower bound <= upper bound.
	if lb := camp.LowerBound24Count(); lb > upper.Len() {
		t.Errorf("lower bound %d exceeds upper bound %d", lb, upper.Len())
	}
}

func TestScopeDiffsMostlyExact(t *testing.T) {
	camp, _ := runCampaign(t, 101, nil)
	exact, total := 0, 0
	for _, diffs := range camp.ScopeDiffs {
		for d, n := range diffs {
			total += n
			if d == 0 {
				exact += n
			}
		}
	}
	if total == 0 {
		t.Fatal("no scope pairs recorded")
	}
	if frac := float64(exact) / float64(total); frac < 0.75 {
		t.Errorf("exact scope fraction %.2f; Table 2 expects ~0.90", frac)
	}
}

func TestRedundancyImprovesRecall(t *testing.T) {
	full, _ := runCampaign(t, 101, nil)
	single, _ := runCampaign(t, 101, func(c *cacheprobe.Config) { c.Redundancy = 1 })
	if len(single.ActiveScopes()) >= len(full.ActiveScopes()) {
		t.Errorf("redundancy 1 found %d scopes, redundancy 5 found %d; expected fewer",
			len(single.ActiveScopes()), len(full.ActiveScopes()))
	}
}

func TestCampaignDeterministic(t *testing.T) {
	a, _ := runCampaign(t, 101, nil)
	b, _ := runCampaign(t, 101, nil)
	if a.ProbesSent != b.ProbesSent || len(a.ActiveScopes()) != len(b.ActiveScopes()) {
		t.Fatalf("campaigns differ: %d/%d probes, %d/%d scopes",
			a.ProbesSent, b.ProbesSent, len(a.ActiveScopes()), len(b.ActiveScopes()))
	}
}

func TestDomainHitCountsOrdering(t *testing.T) {
	camp, _ := runCampaign(t, 101, nil)
	google := len(camp.DomainHits("www.google.com"))
	wiki := len(camp.DomainHits("www.wikipedia.org"))
	if google == 0 {
		t.Fatal("no google hits")
	}
	// Table 5: google discovers the most prefixes, wikipedia far fewer
	// (its scopes are /16-/18).
	if wiki >= google {
		t.Errorf("wikipedia hits (%d) >= google hits (%d)", wiki, google)
	}
}
