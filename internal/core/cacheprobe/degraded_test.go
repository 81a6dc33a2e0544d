package cacheprobe_test

import (
	"reflect"
	"testing"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/faults"
	"clientmap/internal/health"
	"clientmap/internal/randx"
	"clientmap/internal/sim"
	"clientmap/internal/world"
)

// degradedCampaign runs a tiny campaign with one multi-vantage PoP's
// primary browning out and one single-vantage PoP flapping, under an
// aggressive health policy so breakers trip even at tiny probe volumes.
// The victim pair is chosen so both recovery ladders run: same-PoP
// alternates for the brownout, cross-PoP in-radius fallback (or loss)
// for the flap.
func degradedCampaign(t *testing.T, workers int) (*cacheprobe.Campaign, *sim.System) {
	t.Helper()
	s, err := sim.New(sim.Config{Seed: 101, Scale: world.ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}

	// Primary = first vantage routed to each PoP, in vantage order (the
	// DiscoverPoPs rule); multi marks PoPs with at least one alternate.
	primaries := make(map[int]string)
	multi := make(map[int]bool)
	var order []int
	for _, v := range s.Vantages() {
		idx := s.Router.PoPForVantage(v.Coord)
		if idx < 0 {
			continue
		}
		if _, ok := primaries[idx]; ok {
			multi[idx] = true
		} else {
			primaries[idx] = v.Name
			order = append(order, idx)
		}
	}
	var brown, flap string
	for _, idx := range order {
		if multi[idx] && brown == "" {
			brown = primaries[idx]
		}
		if !multi[idx] && flap == "" {
			flap = primaries[idx]
		}
	}
	if brown == "" || flap == "" {
		t.Skipf("world lacks victim pair: multi-vantage %q, single-vantage %q", brown, flap)
	}

	seed := randx.Seed(101)
	start := s.ProberConfig().Clock.Now()
	s.InjectFaults(faults.Config{
		Seed: seed,
		Brownouts: []faults.Brownout{{
			Target: brown, Start: 30 * time.Minute, Duration: 6 * time.Hour,
			ExtraLatency: 400 * time.Millisecond, ExtraLoss: 0.9,
		}},
		Flaps: []faults.Flap{{
			Target: flap, Start: time.Hour, Duration: 23 * time.Hour,
			Period: 8 * time.Hour, Down: 7 * time.Hour,
		}},
	}, start)
	hcfg := health.Default()
	hcfg.Seed = seed
	// Tiny worlds put few probes in each window: trip on any bad window.
	hcfg.Window = time.Hour
	hcfg.MinSamples = 2
	hcfg.OpenAfter = 1
	hcfg.HedgeAfter = 50 * time.Millisecond
	s.EnableHealth(hcfg, start)

	cfg := s.ProberConfig()
	cfg.Duration = 24 * time.Hour
	cfg.Passes = 3
	cfg.Workers = workers
	camp, err := runStages(s.Prober(cfg), cfg, s.PoPCoords())
	if err != nil {
		t.Fatal(err)
	}
	return camp, s
}

// TestCampaignDegradedFailover drives the prober's whole degradation
// path at tiny scale: hedges must fire against the browned-out primary,
// breakers must trip and replay transitions, the per-pass coverage
// ledger must account for every assigned task slot, and the campaign
// must still find active prefixes.
func TestCampaignDegradedFailover(t *testing.T) {
	camp, _ := degradedCampaign(t, 0)
	led := &camp.Health

	if led.HedgesFired == 0 {
		t.Error("no hedges fired against a 400ms brownout")
	}
	if len(led.Transitions) == 0 {
		t.Error("no breaker transitions replayed")
	}
	if len(led.Coverage) != 3 {
		t.Fatalf("coverage ledger has %d passes, want 3", len(led.Coverage))
	}
	for _, cov := range led.Coverage {
		if cov.Assigned == 0 {
			t.Fatalf("pass %d assigned no tasks", cov.Pass)
		}
		if got := cov.Primary + cov.Trial + cov.Alternate + cov.Fallback + cov.Lost; got != cov.Assigned {
			t.Errorf("pass %d routes sum to %d, assigned %d", cov.Pass, got, cov.Assigned)
		}
	}
	var rerouted int64
	for _, cov := range led.Coverage {
		rerouted += cov.Alternate + cov.Fallback + cov.Lost
	}
	if rerouted == 0 {
		t.Error("no task slots re-routed or lost despite a flapping PoP")
	}
	var failedOver int64
	for _, n := range led.FailedOver {
		failedOver += n
	}
	if int64(len(led.LostTasks)) == 0 && failedOver == 0 {
		t.Error("neither failover nor loss recorded")
	}
	if len(camp.ActiveScopes()) == 0 {
		t.Error("degraded campaign found no active prefixes")
	}
}

// TestCampaignDegradedDeterministic: the degraded campaign's ledger is
// bit-identical across worker counts — the package-level version of the
// experiments determinism guarantee.
func TestCampaignDegradedDeterministic(t *testing.T) {
	a, _ := degradedCampaign(t, 1)
	b, _ := degradedCampaign(t, 8)
	if a.ProbesSent != b.ProbesSent {
		t.Errorf("ProbesSent: %d vs %d", a.ProbesSent, b.ProbesSent)
	}
	if !reflect.DeepEqual(a.Health, b.Health) {
		t.Errorf("health ledgers differ:\nworkers=1 %+v\nworkers=8 %+v", a.Health, b.Health)
	}
	if !reflect.DeepEqual(a.Hits, b.Hits) {
		t.Error("hit evidence differs between worker counts")
	}
}
