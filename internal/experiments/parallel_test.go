package experiments

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"clientmap/internal/randx"
	"clientmap/internal/world"
)

// compareResults asserts two runs produced the same Campaign down to
// individual hit timestamps, the same scope-diff tables, the same derived
// prefix sets, and the same headline statistics. Shared by the
// worker-count determinism test and the kill-and-resume test — both make
// the same claim: the knob under test never changes results.
func compareResults(t *testing.T, labelA, labelB string, a, b *Results) {
	t.Helper()
	sc, pc := a.Campaign, b.Campaign
	if sc.ProbesSent != pc.ProbesSent {
		t.Errorf("ProbesSent: %s %d, %s %d", labelA, sc.ProbesSent, labelB, pc.ProbesSent)
	}
	if sc.PreScanQueries != pc.PreScanQueries {
		t.Errorf("PreScanQueries: %s %d, %s %d", labelA, sc.PreScanQueries, labelB, pc.PreScanQueries)
	}
	if !reflect.DeepEqual(sc.ScopesByDomain, pc.ScopesByDomain) {
		t.Error("pre-scan scope lists differ")
	}
	if !reflect.DeepEqual(sc.ScopeDiffs, pc.ScopeDiffs) {
		t.Error("scope-diff tables differ")
	}
	if !reflect.DeepEqual(sc.PoPHits, pc.PoPHits) {
		t.Error("per-PoP hit counts differ")
	}
	if !reflect.DeepEqual(sc.PassTimes, pc.PassTimes) {
		t.Error("pass times differ")
	}
	for pop, pa := range sc.PoPs {
		pb := pc.PoPs[pop]
		if pb == nil || pa.RadiusKm != pb.RadiusKm || pa.Assigned != pb.Assigned ||
			!reflect.DeepEqual(pa.HitDistancesKm, pb.HitDistancesKm) {
			t.Errorf("PoP %s calibration differs", pop)
		}
	}

	// Hits must match per (domain, response scope) down to the evidence:
	// count, pass mask, attributed PoP, and every hit timestamp.
	if len(sc.Hits) != len(pc.Hits) {
		t.Fatalf("hit domains: %s %d, %s %d", labelA, len(sc.Hits), labelB, len(pc.Hits))
	}
	for domain, shits := range sc.Hits {
		phits := pc.Hits[domain]
		if len(shits) != len(phits) {
			t.Errorf("%s: %d vs %d hit scopes", domain, len(shits), len(phits))
			continue
		}
		for scope, sh := range shits {
			ph, ok := phits[scope]
			if !ok {
				t.Errorf("%s: scope %v only in %s run", domain, scope, labelA)
				continue
			}
			if sh.Count != ph.Count || sh.PassMask != ph.PassMask || sh.PoP != ph.PoP ||
				sh.QueryScope != ph.QueryScope || !reflect.DeepEqual(sh.Times, ph.Times) {
				t.Errorf("%s %v: hit evidence differs:\n%s %+v\n%s %+v", domain, scope, labelA, sh, labelB, ph)
			}
		}
	}

	// The degradation ledger — breaker windows and transitions, hedge
	// counts, per-pass coverage, failover tallies — must also be
	// bit-identical: it is checkpointed state, and any schedule leak here
	// would desynchronise breakers across a resume.
	if !reflect.DeepEqual(sc.Health, pc.Health) {
		t.Errorf("health ledgers differ:\n%s %+v\n%s %+v", labelA, sc.Health, labelB, pc.Health)
	}

	if !a.PfxCacheProbe.Set.Equal(b.PfxCacheProbe.Set) {
		t.Error("cache-probing prefix sets differ")
	}
	if !a.PfxDNSLogs.Set.Equal(b.PfxDNSLogs.Set) {
		t.Error("dns-logs prefix sets differ")
	}
	if ha, hb := a.ComputeHeadline(), b.ComputeHeadline(); ha != hb {
		t.Errorf("headlines differ:\n%s %+v\n%s %+v", labelA, ha, labelB, hb)
	}
}

// withProcs sets GOMAXPROCS — the pool size of every campaign stage — to
// n for the rest of the test and restores the previous value on cleanup.
// It changes process-wide state, so a test that calls it must not run in
// parallel with others.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestParallelDeterminism: the pool size is a pure throughput knob. A
// fully sequential run (GOMAXPROCS=1) and a heavily parallel one
// (GOMAXPROCS=8) over the same seed must produce the same Campaign down
// to individual hit timestamps, the same scope-diff tables, and the same
// headline statistics — the guarantee the parallel probing engine is
// built around.
func TestParallelDeterminism(t *testing.T) {
	cfg := DefaultConfig(randx.Seed(424), world.ScaleTiny)
	cfg.CampaignDuration = 24 * time.Hour
	cfg.Passes = 3
	cfg.TraceDuration = 6 * time.Hour

	withProcs(t, 1)
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withProcs(t, 8)
	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	compareResults(t, "sequential", "parallel", seq, par)
}
