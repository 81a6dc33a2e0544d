package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"clientmap/internal/faults"
	"clientmap/internal/health"
	"clientmap/internal/randx"
	"clientmap/internal/sim"
	"clientmap/internal/world"
)

// The checked-in golden regression corpus: the 11 headline statistics of
// a fixed small-scale campaign, plus the degraded-mode stats of the same
// campaign under brownout+flap chaos with the degradation layer on.
// Regenerate after an intentional behaviour change with
// `make golden-update` and review the diff — every moved number is a
// semantic change to the reproduction.
const (
	goldenPath            = "testdata/golden_headline.json"
	goldenDegradationPath = "testdata/golden_degradation.json"
)

// goldenTolerancePct is the per-statistic slack, in percentage points.
// The run is bit-deterministic, so the tolerance only absorbs benign
// float formatting/summation churn; anything larger is a real drift.
const goldenTolerancePct = 0.1

func goldenConfig() Config {
	cfg := DefaultConfig(randx.Seed(2021), world.ScaleSmall)
	cfg.CampaignDuration = 24 * time.Hour
	cfg.Passes = 3
	cfg.TraceDuration = 6 * time.Hour
	return cfg
}

// goldenLoad handles the update-vs-verify split shared by the golden
// tests: with CLIENTMAP_UPDATE_GOLDEN set it rewrites path from got and
// reports false (nothing to compare); otherwise it unmarshals path into
// want and reports true.
func goldenLoad(t *testing.T, path string, got, want any) bool {
	t.Helper()
	if os.Getenv("CLIENTMAP_UPDATE_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with `make golden-update`)", err)
	}
	if err := json.Unmarshal(data, want); err != nil {
		t.Fatal(err)
	}
	return true
}

// goldenCompare checks got against want field by field: floats must agree
// within goldenTolerancePct, integers exactly.
func goldenCompare(t *testing.T, got, want any) {
	t.Helper()
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	typ := gv.Type()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		switch typ.Field(i).Type.Kind() {
		case reflect.Float64:
			g, w := gv.Field(i).Float(), wv.Field(i).Float()
			if math.Abs(g-w) > goldenTolerancePct {
				t.Errorf("%s = %.4f, golden %.4f (Δ %.4f > %.1fpp)", name, g, w, math.Abs(g-w), goldenTolerancePct)
			}
		case reflect.Int, reflect.Int64:
			if g, w := gv.Field(i).Int(), wv.Field(i).Int(); g != w {
				t.Errorf("%s = %d, golden %d", name, g, w)
			}
		default:
			t.Fatalf("unhandled golden field kind %s for %s", typ.Field(i).Type.Kind(), name)
		}
	}
}

// TestGoldenHeadline locks the whole evaluation down end to end: a seeded
// ScaleSmall campaign must reproduce every headline statistic of the
// checked-in golden file within ±0.1 percentage points (the AS count
// exactly). Any code change that moves measurement behaviour — scope
// handling, calibration, cache modelling, dataset joins — trips this
// test; refactors that only reorganize code do not.
func TestGoldenHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("ScaleSmall campaign")
	}
	res, err := Run(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := res.ComputeHeadline()
	var want Headline
	if !goldenLoad(t, goldenPath, got, &want) {
		return
	}
	goldenCompare(t, got, want)
}

// DegradedGolden is the degraded-mode slice of the golden corpus: what
// the degradation layer reports when the golden campaign runs under a
// fixed brownout+flap chaos matrix. Locking these catches regressions in
// breaker replay, hedge accounting and failover planning that leave the
// headline statistics untouched.
type DegradedGolden struct {
	CoverageLossPP     float64 `json:"coverage_loss_pp"`
	HedgeWinRatePct    float64 `json:"hedge_win_rate_pct"`
	BreakerTransitions int     `json:"breaker_transitions"`
	HedgesFired        int64   `json:"hedges_fired"`
	HedgesWon          int64   `json:"hedges_won"`
	TasksFailedOver    int64   `json:"tasks_failed_over"`
	TasksLost          int64   `json:"tasks_lost"`
}

// TestGoldenDegradation locks the degradation layer's outputs for the
// golden campaign under the chaos matrix also used by the determinism
// tests: one multi-vantage PoP's primary browning out for six hours, a
// second one flapping seven hours down out of every eight. The victims
// are picked from the seeded world, so the spec is as reproducible as
// the campaign itself.
func TestGoldenDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("ScaleSmall campaign")
	}
	cfg := goldenConfig()
	sys, err := sim.New(sim.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		t.Fatal(err)
	}
	multi := multiVantagePrimaries(sys)
	if len(multi) < 2 {
		t.Fatalf("need two multi-vantage PoPs, found %d", len(multi))
	}
	cfg.Faults = faults.Config{
		Brownouts: []faults.Brownout{{
			Target: multi[0], Start: 30 * time.Minute, Duration: 6 * time.Hour,
			ExtraLatency: 400 * time.Millisecond, ExtraLoss: 0.5,
		}},
		Flaps: []faults.Flap{{
			Target: multi[1], Start: time.Hour, Duration: 23 * time.Hour,
			Period: 8 * time.Hour, Down: 7 * time.Hour,
		}},
	}
	cfg.Health = health.Default()

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	goldenReliability(t, "degraded", res)
	d := res.Degradation()
	if !d.Enabled {
		t.Fatal("degradation layer reported disabled")
	}
	var failedOver, lost int64
	for _, n := range d.FailedOver {
		failedOver += n
	}
	for _, c := range d.Coverage {
		lost += c.Lost
	}
	got := DegradedGolden{
		CoverageLossPP:     d.EstimatedLossPP,
		HedgeWinRatePct:    d.HedgeWinRatePct,
		BreakerTransitions: d.Transitions,
		HedgesFired:        d.HedgesFired,
		HedgesWon:          d.HedgesWon,
		TasksFailedOver:    failedOver,
		TasksLost:          lost,
	}
	var want DegradedGolden
	if !goldenLoad(t, goldenDegradationPath, got, &want) {
		return
	}
	goldenCompare(t, got, want)
}

// goldenReliabilityPath pins the reliability and degradation JSON of
// the two chaos configurations the suite already runs: the loss, outage
// and retry matrix of TestChaosCampaignDeterminism ("chaos") and the
// brownout, flap and health matrix of TestGoldenDegradation
// ("degraded"). Both reports are read back from checkpointed artifacts,
// so any change to how the campaign counts faults, retries or hedges
// shows here.
const goldenReliabilityPath = "testdata/golden_reliability.json"

// goldenReliability checks res's Reliability().JSON() and
// Degradation().JSON() against the named section of
// goldenReliabilityPath: every key, in order, with every value exactly
// (only the indentation is normalised). With CLIENTMAP_UPDATE_GOLDEN set
// it rewrites that section and leaves the others alone.
func goldenReliability(t *testing.T, section string, res *Results) {
	t.Helper()
	rel, err := res.Reliability().JSON()
	if err != nil {
		t.Fatal(err)
	}
	deg, err := res.Degradation().JSON()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]json.RawMessage{"reliability": rel, "degradation": deg}
	file := map[string]map[string]json.RawMessage{}
	data, err := os.ReadFile(goldenReliabilityPath)
	if os.Getenv("CLIENTMAP_UPDATE_GOLDEN") != "" {
		if err == nil {
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatal(err)
			}
		}
		file[section] = got
		out, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenReliabilityPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s [%s]", goldenReliabilityPath, section)
		return
	}
	if err != nil {
		t.Fatalf("%v (regenerate with `make golden-update`)", err)
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"reliability", "degradation"} {
		var g, w bytes.Buffer
		if err := json.Compact(&g, got[k]); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&w, file[section][k]); err != nil {
			t.Fatalf("%s [%s.%s]: %v", goldenReliabilityPath, section, k, err)
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Errorf("%s %s drifted from %s:\ngot    %s\ngolden %s", section, k, goldenReliabilityPath, g.Bytes(), w.Bytes())
		}
	}
}
