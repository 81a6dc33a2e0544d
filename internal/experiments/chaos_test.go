package experiments

import (
	"errors"
	"testing"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/faults"
	"clientmap/internal/health"
	"clientmap/internal/pipeline"
	"clientmap/internal/randx"
	"clientmap/internal/sim"
	"clientmap/internal/world"
)

// multiVantagePrimaries returns the primary vantage names of PoPs reached
// by at least two vantages, in vantage order. The primary is the first
// vantage routed to a PoP — the same rule DiscoverPoPs applies — so these
// are the victims a degradation test can knock out while same-PoP
// failover recovers full coverage.
func multiVantagePrimaries(sys *sim.System) []string {
	primaries := make(map[int]string)
	listed := make(map[int]bool)
	var multi []string
	for _, v := range sys.Vantages {
		idx := sys.Router.PoPForVantage(v.Coord)
		if idx < 0 {
			continue
		}
		if prim, ok := primaries[idx]; ok {
			if !listed[idx] {
				listed[idx] = true
				multi = append(multi, prim)
			}
		} else {
			primaries[idx] = v.Name
		}
	}
	return multi
}

// TestChaosCampaignDeterminism is the fault-injection layer's headline
// guarantee, in two halves:
//
//  1. A campaign under injected chaos — 2% packet loss plus a 4-hour
//     outage window blacking out one vantage's path — is still exactly as
//     deterministic as a fault-free one: byte-identical results across
//     worker counts and across a mid-campaign kill-and-resume. Fault
//     decisions are pure hashes of (seed, target, txid, attempt), so
//     neither scheduling nor the checkpoint boundary can change them.
//  2. The retry policy earns its keep: with retries the campaign's prefix
//     coverage recovers to within 1% of the zero-loss baseline, while the
//     same chaos without retries measurably undercounts.
func TestChaosCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run ScaleSmall campaign")
	}
	base := DefaultConfig(randx.Seed(2021), world.ScaleSmall)
	base.CampaignDuration = 24 * time.Hour
	base.Passes = 3
	base.TraceDuration = 6 * time.Hour

	// Zero-loss baseline: the coverage the techniques achieve on a
	// perfectly reliable substrate, and the vantage catalog to pick an
	// outage victim from.
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cleanCov := clean.PfxCacheProbe.Len()
	if cleanCov == 0 {
		t.Fatal("baseline run found no active prefixes")
	}
	victim := clean.Sys.Vantages[0].Name

	// The chaos configuration: 2% loss everywhere, plus one vantage dark
	// for hours 2-6 of the campaign (after PoP discovery, across the
	// early probing). Retries: 3 attempts with a small backoff.
	chaos := base
	chaos.Faults = faults.Config{
		Loss:    0.02,
		Outages: []faults.Outage{{Target: victim, Start: 2 * time.Hour, Duration: 4 * time.Hour}},
	}
	chaos.Retry = cacheprobe.Retry{Attempts: 3, Backoff: 100 * time.Millisecond}

	// (1a) Pool-size determinism under chaos.
	withProcs(t, 1)
	w1, err := Run(chaos)
	if err != nil {
		t.Fatal(err)
	}
	withProcs(t, 8)
	w8, err := Run(chaos)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "workers=1", "workers=8", w1, w8)
	if w1.Reliability() != w8.Reliability() {
		t.Errorf("fault ledgers differ:\nworkers=1 %+v\nworkers=8 %+v", w1.Reliability(), w8.Reliability())
	}
	if w1.RenderAll() != w8.RenderAll() {
		t.Error("rendered reports differ between worker counts under chaos")
	}
	goldenReliability(t, "chaos", w1)

	// The chaos must actually have happened, and the retry policy must
	// actually have been exercised — otherwise the test proves nothing.
	fl := w1.Reliability().CacheProbing
	if fl.InjectedDrops == 0 {
		t.Error("no loss drops injected")
	}
	if fl.OutageDrops == 0 {
		t.Error("no outage drops injected")
	}
	if fl.RetriesSpent == 0 || fl.RetriesRecovered == 0 {
		t.Errorf("retry policy idle under 2%% loss: %+v", fl)
	}

	// (1b) Kill-and-resume determinism under chaos: stop right after
	// probing pass 1 checkpoints, resume in a "fresh process", and demand
	// results — fault ledger included — identical to the uninterrupted
	// chaos run.
	dir := t.TempDir()
	kcfg := chaos
	kcfg.StateDir = dir
	kcfg.StopAfter = ProbePassStage(1)
	if _, err := Run(kcfg); !errors.Is(err, pipeline.ErrStopped) {
		t.Fatalf("stopped run: got error %v, want pipeline.ErrStopped", err)
	}
	rcfg := chaos
	rcfg.StateDir = dir
	rcfg.Resume = true
	rlog := &logCapture{}
	rcfg.Log = rlog.logf
	resumed, err := Run(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := rlog.count("probe-pass-1: restored checkpoint"); n != 1 {
		t.Errorf("probe-pass-1 restored %d times, want 1 (resume did not reuse the killed run)", n)
	}
	compareResults(t, "uninterrupted", "resumed", w1, resumed)
	if resumed.Reliability() != w1.Reliability() {
		t.Errorf("fault ledger changed across resume:\nuninterrupted %+v\nresumed %+v", w1.Reliability(), resumed.Reliability())
	}
	if w1.RenderAll() != resumed.RenderAll() {
		t.Error("rendered reports differ between the uninterrupted and the resumed chaos run")
	}

	// (2) Coverage is recall of the zero-loss baseline's active-prefix
	// set: the fraction of the prefixes a reliable campaign finds that
	// the chaotic one still finds. (The raw prefix *count* is not a
	// loss signal — a dropped pre-scan response shifts the discovered
	// scope boundaries, which can even inflate the /24 expansion.)
	recall := func(r *Results) float64 {
		return float64(r.PfxCacheProbe.Set.IntersectCount(clean.PfxCacheProbe.Set)) / float64(cleanCov)
	}

	// With retries the campaign recovers to within 1% of the baseline...
	chaosRecall := recall(w1)
	if chaosRecall < 0.99 {
		t.Errorf("baseline recall under chaos with retries = %.4f, want ≥ 0.99", chaosRecall)
	}

	// ...while the same chaos without retries measurably undercounts: the
	// pre-scan and discovery stages have no redundancy, so every dropped
	// query there is scope lost for the whole campaign.
	bare := chaos
	bare.Retry = cacheprobe.Retry{}
	noretry, err := Run(bare)
	if err != nil {
		t.Fatal(err)
	}
	bareRecall := recall(noretry)
	if bareRecall >= chaosRecall {
		t.Errorf("baseline recall without retries (%.4f) not below recall with retries (%.4f)", bareRecall, chaosRecall)
	}
	t.Logf("baseline %d prefixes; recall with retries %.4f, without %.4f; ledger %+v",
		cleanCov, chaosRecall, bareRecall, fl)
}

// TestDegradedCampaignDeterminism is the degradation layer's headline
// guarantee: a campaign with one vantage browning out for six hours and
// one PoP flapping up and down still produces byte-identical results
// across worker counts and a mid-campaign kill-and-resume, recovers at
// least 95% of the zero-fault baseline's recall through hedging and
// failover, and reports the residual gap in its coverage ledger to within
// ±0.1 percentage points.
func TestDegradedCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run ScaleSmall campaign")
	}
	base := DefaultConfig(randx.Seed(2026), world.ScaleSmall)
	base.CampaignDuration = 24 * time.Hour
	base.Passes = 3
	base.TraceDuration = 6 * time.Hour

	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cleanCov := clean.PfxCacheProbe.Len()
	if cleanCov == 0 {
		t.Fatal("baseline run found no active prefixes")
	}

	// Victims: primary vantages of PoPs that have at least one alternate
	// vantage, so failover within the PoP can recover the full coverage.
	multi := multiVantagePrimaries(clean.Sys)
	if len(multi) < 2 {
		t.Fatalf("need two multi-vantage PoPs, found %d", len(multi))
	}
	brownVictim, flapVictim := multi[0], multi[1]

	// Both windows start after the discovery and calibration queries
	// (scheduled at the epoch), so the degraded run probes the same
	// assignment the baseline does. The brownout inflates latency past
	// the hedge threshold and drops up to half the victim's queries for
	// six hours; the flap holds the other victim down seven hours out of
	// every eight for the rest of the campaign.
	deg := base
	deg.Faults = faults.Config{
		Brownouts: []faults.Brownout{{
			Target: brownVictim, Start: 30 * time.Minute, Duration: 6 * time.Hour,
			ExtraLatency: 400 * time.Millisecond, ExtraLoss: 0.5,
		}},
		Flaps: []faults.Flap{{
			Target: flapVictim, Start: time.Hour, Duration: 23 * time.Hour,
			Period: 8 * time.Hour, Down: 7 * time.Hour,
		}},
	}
	deg.Health = health.Default()

	withProcs(t, 1)
	w1, err := Run(deg)
	if err != nil {
		t.Fatal(err)
	}
	withProcs(t, 8)
	w8, err := Run(deg)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "workers=1", "workers=8", w1, w8)
	if w1.Reliability() != w8.Reliability() {
		t.Errorf("fault ledgers differ:\nworkers=1 %+v\nworkers=8 %+v", w1.Reliability(), w8.Reliability())
	}
	if w1.RenderAll() != w8.RenderAll() {
		t.Error("rendered reports differ between worker counts under degradation")
	}
	j1, err1 := w1.Degradation().JSON()
	j8, err8 := w8.Degradation().JSON()
	if err1 != nil || err8 != nil {
		t.Fatalf("degradation JSON: %v, %v", err1, err8)
	}
	if string(j1) != string(j8) {
		t.Errorf("degradation reports differ:\nworkers=1 %s\nworkers=8 %s", j1, j8)
	}

	// The degradation machinery must actually have engaged.
	fl := w1.Reliability().CacheProbing
	if fl.BrownoutDrops == 0 {
		t.Error("no brownout drops injected")
	}
	if fl.FlapDrops == 0 {
		t.Error("no flap drops injected")
	}
	led := &w1.Campaign.Health
	hd := w1.Degradation()
	if hd.HedgesFired == 0 || hd.HedgesWon == 0 {
		t.Errorf("hedging idle under degradation: fired=%d won=%d", hd.HedgesFired, hd.HedgesWon)
	}
	if len(led.Transitions) == 0 {
		t.Error("no breaker transitions replayed")
	}
	var failedOver int64
	for _, n := range led.FailedOver {
		failedOver += n
	}
	if failedOver == 0 {
		t.Error("no task slots failed over despite a flapping PoP")
	}

	// Kill-and-resume determinism: the health ledger is checkpointed
	// state, so the resumed run must replay the same breaker timeline.
	dir := t.TempDir()
	kcfg := deg
	kcfg.StateDir = dir
	kcfg.StopAfter = ProbePassStage(1)
	if _, err := Run(kcfg); !errors.Is(err, pipeline.ErrStopped) {
		t.Fatalf("stopped run: got error %v, want pipeline.ErrStopped", err)
	}
	rcfg := deg
	rcfg.StateDir = dir
	rcfg.Resume = true
	resumed, err := Run(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "uninterrupted", "resumed", w1, resumed)
	if w1.RenderAll() != resumed.RenderAll() {
		t.Error("rendered reports differ between the uninterrupted and the resumed degraded run")
	}

	// Recall against the clean baseline, and the coverage ledger's own
	// estimate of what was lost: the two must agree to within 0.1 pp.
	recall := float64(w1.PfxCacheProbe.Set.IntersectCount(clean.PfxCacheProbe.Set)) / float64(cleanCov)
	if recall < 0.95 {
		t.Errorf("baseline recall under degradation = %.4f, want ≥ 0.95", recall)
	}
	gapPP := 100 * (1 - recall)
	lossPP := led.EstimatedLossPP()
	if diff := lossPP - gapPP; diff < -0.1 || diff > 0.1 {
		t.Errorf("coverage ledger estimate %.3f pp vs measured gap %.3f pp (want within ±0.1 pp)", lossPP, gapPP)
	}
	t.Logf("baseline %d prefixes; recall %.4f; ledger loss %.3f pp; hedges %d/%d; failed over %d; transitions %d",
		cleanCov, recall, lossPP, hd.HedgesFired, hd.HedgesWon, failedOver, len(led.Transitions))
}
