package cacheprobe_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/geo"
	"clientmap/internal/health"
	"clientmap/internal/randx"
	"clientmap/internal/sim"
	"clientmap/internal/world"
)

// planInputs is everything BuildAssignments reads: a calibrated
// campaign over a simulated world.
type planInputs struct {
	s      *sim.System
	p      *cacheprobe.Prober
	pops   map[string]*cacheprobe.Vantage
	coords map[string]geo.Coord
	camp   *cacheprobe.Campaign
}

func newPlanInputs(tb testing.TB, seed randx.Seed, scale world.Scale) *planInputs {
	tb.Helper()
	s, err := sim.New(sim.Config{Seed: seed, Scale: scale})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := s.ProberConfig()
	// The degradation layer keeps the scope-geography table on the plan
	// for the failover planner, which the oracle checks too.
	cfg.Health = health.NewTracker(health.Default(), s.Clock.Now(), nil)
	in := &planInputs{s: s, p: s.Prober(cfg), coords: s.PoPCoords(), camp: cacheprobe.NewCampaign()}
	ctx := context.Background()
	if in.pops, err = in.p.DiscoverPoPs(ctx); err != nil {
		tb.Fatal(err)
	}
	if err := in.p.PreScan(ctx, in.camp); err != nil {
		tb.Fatal(err)
	}
	in.p.Calibrate(ctx, in.pops, in.camp)
	return in
}

// TestAssignmentsMatchOracle holds the plan built from the
// scope-geography table to the per-(PoP, domain, scope) loop it replaced,
// task for task, together with the failover planner's candidate lists,
// over tiny and small worlds and three seeds. Each world is planned at
// its calibrated radii, and again with one PoP uncalibrated and another
// missing its catalog coordinates. Tiny worlds are also planned with
// every PoP at each of a spread of radii (none, regional, continental,
// the maximum); at small scale those plans only repeat the comparison
// at several times the cost.
func TestAssignmentsMatchOracle(t *testing.T) {
	for _, scale := range []world.Scale{world.ScaleTiny, world.ScaleSmall} {
		for _, seed := range []randx.Seed{1, 7, 2021} {
			t.Run(fmt.Sprintf("%s/seed=%d", scale.Name, seed), func(t *testing.T) {
				in := newPlanInputs(t, seed, scale)
				check := func(label string, coords map[string]geo.Coord) {
					t.Helper()
					asg := in.p.BuildAssignments(in.pops, coords, in.camp)
					tasks := 0
					for pi := 0; pi < asg.NumPoPs(); pi++ {
						tasks += asg.NumTasks(pi)
					}
					// About 100 failover scans per PoP.
					every := max(1, tasks/asg.NumPoPs()/100)
					if d := in.p.PlanOracleDiff(in.pops, coords, in.camp, asg, every); d != "" {
						t.Fatalf("%s: %s", label, d)
					}
					t.Logf("%s: %d tasks over %d distinct scopes", label, tasks, asg.DistinctScopes())
				}
				check("calibrated", in.coords)
				if scale == world.ScaleTiny {
					radii := make(map[string]float64)
					for pop, cal := range in.camp.PoPs {
						radii[pop] = cal.RadiusKm
					}
					for _, r := range []float64{0, 250, 1500, cacheprobe.MaxServiceRadiusKm} {
						for _, cal := range in.camp.PoPs {
							cal.RadiusKm = r
						}
						check(fmt.Sprintf("radius %v km", r), in.coords)
					}
					for pop, cal := range in.camp.PoPs {
						cal.RadiusKm = radii[pop]
					}
				}
				var pops []string
				for pop := range in.pops {
					pops = append(pops, pop)
				}
				slices.Sort(pops)
				delete(in.camp.PoPs, pops[0])
				coords := make(map[string]geo.Coord, len(in.coords))
				for pop, c := range in.coords {
					if pop != pops[1] {
						coords[pop] = c
					}
				}
				check("one PoP uncalibrated, one at its vantage", coords)
			})
		}
	}
}

// BenchmarkBuildAssignments times the plan build (pass 0's share of
// the produce path: the scope-geography table, then every PoP's task
// list) on a small world. It reports cacheprobe.build_assignments_ms,
// the ladder's name for the same measurement, and the number of distinct
// scopes the table geolocated.
func BenchmarkBuildAssignments(b *testing.B) {
	in := newPlanInputs(b, 2021, world.ScaleSmall)
	var asg *cacheprobe.Assignments
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asg = in.p.BuildAssignments(in.pops, in.coords, in.camp)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "cacheprobe.build_assignments_ms")
	b.ReportMetric(float64(asg.DistinctScopes()), "distinct_scopes")
}
