package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"clientmap/internal/churn"
	"clientmap/internal/faults"
	"clientmap/internal/pipeline"
	"clientmap/internal/randx"
	"clientmap/internal/statefs"
	"clientmap/internal/statefsck"
	"clientmap/internal/world"
)

// streamChurnSpec is the determinism suite's churn scenario: periodic
// prefix re-allocations, resolver-share drift, diurnal amplitude shifts,
// a PoP withdrawn mid-stream and re-announced five hours later, and the
// Chromium-deprecation event halfway through.
const streamChurnSpec = "realloc=3@5h,drift=0.15@9h,diurnal=0.2@11h,pop=fra@6h+5h,chromium=off@12h"

func streamTestConfig(t *testing.T) StreamConfig {
	t.Helper()
	ch, err := churn.Parse(streamChurnSpec)
	if err != nil {
		t.Fatal(err)
	}
	return StreamConfig{
		Seed:   randx.Seed(2021),
		Scale:  world.ScaleTiny,
		Hours:  24,
		Churn:  ch,
		Faults: faults.Config{Loss: 0.02},
	}
}

// compareStreams asserts that two streaming runs produced byte-identical
// rolling views, decay ledgers, metrics JSON, coverage-lag reports, and
// final rolling artifacts.
func compareStreams(t *testing.T, aName, bName string, a, b *StreamResults) {
	t.Helper()
	if !slices.Equal(a.State.Views, b.State.Views) {
		t.Errorf("rolling views differ:\n%s: %+v\n%s: %+v", aName, a.State.Views, bName, b.State.Views)
	}
	al, alh := a.State.Ledger.MarshalLedger()
	bl, blh := b.State.Ledger.MarshalLedger()
	if !bytes.Equal(al, bl) {
		t.Errorf("decay ledgers differ: %s %s vs %s %s", aName, alh, bName, blh)
	}
	if am, bm := a.MetricsJSON(), b.MetricsJSON(); !bytes.Equal(am, bm) {
		t.Errorf("metrics JSON differs:\n%s: %s\n%s: %s", aName, am, bName, bm)
	}
	if ar, br := a.Report.Render(), b.Report.Render(); ar != br {
		t.Errorf("coverage-lag reports differ:\n--- %s ---\n%s--- %s ---\n%s", aName, ar, bName, br)
	}
	if a.FinalHash != b.FinalHash {
		t.Errorf("final rolling artifact differs: %s %s vs %s %s", aName, a.FinalHash, bName, b.FinalHash)
	}
}

// TestStreamingDeterminism is the streaming mode's core guarantee: 24
// sim-hours over a churning world with faults enabled produce
// byte-identical rolling views, metrics JSON, and coverage-lag reports
// whether probed at GOMAXPROCS 1 or 8, and whether the process ran straight
// through or was killed at an arbitrary hour and resumed from
// checkpoints. The Chromium-deprecation event must show up as a nonzero,
// quantified coverage loss.
func TestStreamingDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("24 sim-hour stream")
	}
	cfg := streamTestConfig(t)
	withProcs(t, 1)
	ref, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Pool size is a pure throughput knob.
	withProcs(t, 8)
	wide, err := RunStream(streamTestConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	compareStreams(t, "workers=1", "workers=8", ref, wide)

	// Kill at a seed-derived (arbitrary, but reproducible) hour, resume
	// in a "fresh process" from the per-hour checkpoints.
	killHour := 1 + int(uint64(cfg.Seed)%uint64(cfg.Hours-2)) // in [1, Hours-2]
	dir := t.TempDir()
	kcfg := streamTestConfig(t)
	kcfg.StateDir = dir
	kcfg.StopAfter = StreamHourStage(killHour)
	if _, err := RunStream(kcfg); !errors.Is(err, pipeline.ErrStopped) {
		t.Fatalf("stopped run: got error %v, want pipeline.ErrStopped", err)
	}
	rcfg := streamTestConfig(t)
	rcfg.StateDir = dir
	rcfg.Resume = true
	resumed, err := RunStream(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	compareStreams(t, "uninterrupted", "killed@"+StreamHourStage(killHour), ref, resumed)

	// The stream actually streamed: one rolling view per hour, a rolling
	// artifact every emit hour, and live evidence at the end.
	if got := len(ref.State.Views); got != cfg.Hours {
		t.Errorf("%d rolling views, want %d", got, cfg.Hours)
	}
	if ref.Report.Emits != cfg.Hours {
		t.Errorf("%d artifact emits, want %d (EmitEvery=1)", ref.Report.Emits, cfg.Hours)
	}
	if ref.Report.FinalScopes == 0 {
		t.Error("final rolling view has no active scopes")
	}
	last := ref.State.Views[len(ref.State.Views)-1]
	if last.MapHash == "" || last.MapHash != ref.FinalHash {
		t.Errorf("final view map hash %q != rebuilt artifact hash %q", last.MapHash, ref.FinalHash)
	}

	// Chromium deprecation: the DNS-logs technique starves, and the
	// report quantifies the loss.
	if ref.Report.ChromiumOffHour != 12 {
		t.Fatalf("ChromiumOffHour = %d, want 12", ref.Report.ChromiumOffHour)
	}
	if ref.Report.ChromiumBase == 0 {
		t.Fatal("no DNS-channel coverage before the Chromium deprecation — nothing to lose")
	}
	if ref.Report.ChromiumLossPct <= 0 {
		t.Errorf("ChromiumLossPct = %v, want > 0 (base %d -> end %d)",
			ref.Report.ChromiumLossPct, ref.Report.ChromiumBase, ref.Report.ChromiumEnd)
	}

	// The coverage-lag table tracked the plan's trackable events, and at
	// least one reflected with a finite lag.
	if len(ref.Report.Outcomes) == 0 {
		t.Fatal("empty coverage-lag table")
	}
	reflected := 0
	for _, o := range ref.Report.Outcomes {
		if o.ReflectedHour >= 0 {
			reflected++
			if o.Lag() < 0 {
				t.Errorf("negative lag for %s", o.Event.Describe())
			}
		}
	}
	if reflected == 0 {
		t.Error("no churn event ever reflected in the rolling map")
	}
}

// goldenStreamPath pins the streaming mode's behaviour: the rolling-view
// headline stats and the full coverage-lag table of a fixed
// (seed, churn spec, 24 sim-hour) stream. Regenerate with
// `make golden-update` after an intentional behaviour change.
const goldenStreamPath = "testdata/golden_stream.json"

// StreamGoldenStats is the flat-stat slice of the golden streaming
// corpus (goldenCompare-able: ints exact, floats within tolerance).
type StreamGoldenStats struct {
	ActiveScopes    int     `json:"active_scopes"`
	DNSActive       int     `json:"dns_active"`
	Emits           int     `json:"emits"`
	Scheduled       int64   `json:"scheduled"`
	Probes          int64   `json:"probes"`
	Hits            int64   `json:"hits"`
	FreshScopes     int64   `json:"fresh_scopes"`
	DecayedScopes   int64   `json:"decayed_scopes"`
	ChurnEvents     int64   `json:"churn_events"`
	DriftTicks      int     `json:"drift_ticks"`
	DiurnalTicks    int     `json:"diurnal_ticks"`
	LagReflected    int64   `json:"lag_reflected"`
	LagPending      int64   `json:"lag_pending"`
	LagHoursSum     int64   `json:"lag_hours_sum"`
	ChromiumBase    int     `json:"chromium_base_24s"`
	ChromiumEnd     int     `json:"chromium_end_24s"`
	ChromiumLossPct float64 `json:"chromium_loss_pct"`
}

// StreamGolden is the checked-in golden streaming corpus.
type StreamGolden struct {
	Stats StreamGoldenStats `json:"stats"`
	// LagTable is one line per tracked churn event, in plan order:
	// "hour=<h> lag=<n|pending> <event>".
	LagTable []string `json:"lag_table"`
}

func streamGoldenOf(res *StreamResults) StreamGolden {
	led := res.MetricsLedger()
	r := res.Report
	g := StreamGolden{Stats: StreamGoldenStats{
		ActiveScopes:    r.FinalScopes,
		DNSActive:       r.FinalDNS,
		Emits:           r.Emits,
		Scheduled:       led["stream/scheduled"],
		Probes:          led["stream/probes"],
		Hits:            led["stream/hits"],
		FreshScopes:     led["stream/fresh_scopes"],
		DecayedScopes:   led["stream/decayed_scopes"],
		ChurnEvents:     led["stream/churn_events"],
		DriftTicks:      r.DriftTicks,
		DiurnalTicks:    r.DiurnalTicks,
		LagReflected:    led["stream/lag_reflected"],
		LagPending:      led["stream/lag_pending"],
		LagHoursSum:     led["stream/lag_hours_sum"],
		ChromiumBase:    r.ChromiumBase,
		ChromiumEnd:     r.ChromiumEnd,
		ChromiumLossPct: r.ChromiumLossPct,
	}}
	for _, o := range r.Outcomes {
		lag := "pending"
		if o.ReflectedHour >= 0 {
			lag = fmt.Sprintf("%d", o.Lag())
		}
		g.LagTable = append(g.LagTable, fmt.Sprintf("hour=%d lag=%s %s", o.Event.Hour, lag, o.Event.Describe()))
	}
	return g
}

// TestGoldenStream locks the streaming mode end to end: the fixed-seed
// 24-hour churn scenario must reproduce every rolling-view headline
// statistic and the full coverage-lag table of the checked-in golden
// file. Any change to the decay algebra, the adaptive scheduler, the
// churn planner, or the DNS-tick model trips this test; pure refactors
// do not.
func TestGoldenStream(t *testing.T) {
	if testing.Short() {
		t.Skip("24 sim-hour stream")
	}
	res, err := RunStream(streamTestConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	got := streamGoldenOf(res)
	var want StreamGolden
	if !goldenLoad(t, goldenStreamPath, got, &want) {
		return
	}
	assertStreamGolden(t, got, want)
}

// assertStreamGolden compares a stream's golden slice with the corpus.
func assertStreamGolden(t *testing.T, got, want StreamGolden) {
	t.Helper()
	goldenCompare(t, got.Stats, want.Stats)
	if len(got.LagTable) != len(want.LagTable) {
		t.Fatalf("lag table has %d rows, golden %d:\ngot  %q\nwant %q",
			len(got.LagTable), len(want.LagTable), got.LagTable, want.LagTable)
	}
	for i := range want.LagTable {
		if got.LagTable[i] != want.LagTable[i] {
			t.Errorf("lag table row %d = %q, golden %q", i, got.LagTable[i], want.LagTable[i])
		}
	}
}

// TestStreamKillResumeSmoke is the CI stream-smoke job: 6 sim-hours
// under churn, killed after hour 3's checkpoint and resumed, with the
// resumed run's rolling view and on-disk artifact byte-identical to an
// uninterrupted run's. Kept deliberately small so it stays fast under
// -race.
func TestStreamKillResumeSmoke(t *testing.T) {
	ch, err := churn.Parse("realloc=2@2h,chromium=off@3h")
	if err != nil {
		t.Fatal(err)
	}
	base := StreamConfig{
		Seed:  randx.Seed(7),
		Scale: world.ScaleTiny,
		Hours: 6,
		Churn: ch,
	}

	full := base
	full.ArtifactPath = filepath.Join(t.TempDir(), "rolling.bin")
	fres, err := RunStream(full)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	killed := base
	killed.StateDir = dir
	killed.StopAfter = StreamHourStage(3)
	if _, err := RunStream(killed); !errors.Is(err, pipeline.ErrStopped) {
		t.Fatalf("stopped run: got error %v, want pipeline.ErrStopped", err)
	}
	resumed := base
	resumed.StateDir = dir
	resumed.Resume = true
	resumed.ArtifactPath = filepath.Join(t.TempDir(), "rolling.bin")
	rres, err := RunStream(resumed)
	if err != nil {
		t.Fatal(err)
	}
	compareStreams(t, "uninterrupted", "resumed", fres, rres)

	// The rolling artifacts clientmapd would hot-reload are identical
	// byte for byte.
	fbytes, err := os.ReadFile(full.ArtifactPath)
	if err != nil {
		t.Fatal(err)
	}
	rbytes, err := os.ReadFile(resumed.ArtifactPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fbytes, rbytes) {
		t.Error("on-disk rolling artifacts differ between uninterrupted and resumed runs")
	}
}

// TestStreamKillResumeEveryKind kills a tiny stream at each hour that
// holds a churn event — one hour per kind, all six kinds — and resumes
// it. Each resumed run must match the uninterrupted run byte for byte:
// rolling views, decay ledger, metrics JSON, lag report and the on-disk
// rolling artifact. A resumed process rebuilds its lazy-fill memo from
// the replayed hours' effects, so a kind that drops too little (or a
// route that goes stale) shows up here as a diverging hour.
func TestStreamKillResumeEveryKind(t *testing.T) {
	ch, err := churn.Parse("chromium=off@1h,pop=fra@2h+1h,realloc=2@4h,drift=0.15@5h,diurnal=0.2@6h")
	if err != nil {
		t.Fatal(err)
	}
	base := StreamConfig{
		Seed:   randx.Seed(7),
		Scale:  world.ScaleTiny,
		Hours:  8,
		Churn:  ch,
		Faults: faults.Config{Loss: 0.02},
	}
	artifact := func(cfg *StreamConfig) []byte {
		t.Helper()
		b, err := os.ReadFile(cfg.ArtifactPath)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	full := base
	full.ArtifactPath = filepath.Join(t.TempDir(), "rolling.bin")
	fres, err := RunStream(full)
	if err != nil {
		t.Fatal(err)
	}
	fart := artifact(&full)

	ch.Seed = base.Seed
	w, err := world.Generate(world.Config{Seed: base.Seed, Scale: base.Scale, Params: world.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	kindAt := map[int]churn.Kind{}
	for _, ev := range ch.Plan(base.Hours, w) {
		if k, ok := kindAt[ev.Hour]; ok && k != ev.Kind {
			t.Fatalf("hour %d holds both %s and %s", ev.Hour, k, ev.Kind)
		}
		kindAt[ev.Hour] = ev.Kind
	}
	if len(kindAt) != 6 {
		t.Fatalf("plan holds events on %d hours, want one per kind (6)", len(kindAt))
	}
	for h := 0; h < base.Hours; h++ {
		kind, ok := kindAt[h]
		if !ok {
			continue
		}
		dir := t.TempDir()
		killed := base
		killed.StateDir = dir
		killed.StopAfter = StreamHourStage(h)
		if _, err := RunStream(killed); !errors.Is(err, pipeline.ErrStopped) {
			t.Fatalf("stopped at hour %d (%s): got error %v, want pipeline.ErrStopped", h, kind, err)
		}
		resumed := base
		resumed.StateDir = dir
		resumed.Resume = true
		resumed.ArtifactPath = filepath.Join(t.TempDir(), "rolling.bin")
		rres, err := RunStream(resumed)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("killed@%d (%s)", h, kind)
		compareStreams(t, "uninterrupted", label, fres, rres)
		if !bytes.Equal(fart, artifact(&resumed)) {
			t.Errorf("%s: on-disk rolling artifact differs from the uninterrupted run's", label)
		}
	}
}

// TestStreamShardRunners: a stream hour is a probing step like a batch
// pass, so it shards. Three shard runners (three RunStream calls with
// their own worlds, probers and registries, sharing only the state dir)
// stream the 24-hour churn scenario cooperatively. One is killed after
// the seed-derived hour TestStreamingDeterminism kills at; the survivors
// finish by stealing its stages, and then it resumes and finishes too.
// Every runner, and an in-process run of every shard, must reproduce the
// monolithic stream: rolling views, decay ledger, metrics, lag report,
// rolling artifact bytes, and the golden streaming corpus. The shared
// state dir must hold no corrupt checkpoint and no broken delta chain.
func TestStreamShardRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("24 sim-hour stream")
	}
	const runners = 3
	arts := t.TempDir()
	mcfg := streamTestConfig(t)
	mcfg.ArtifactPath = filepath.Join(arts, "mono.bin")
	mono, err := RunStream(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	monoArt, err := os.ReadFile(mcfg.ArtifactPath)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(goldenStreamPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden StreamGolden
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	runner := func(i int) Config {
		cfg := streamTestConfig(t)
		cfg.Shards = runners
		cfg.ShardIndex = i
		cfg.StateDir = dir
		cfg.ShardStealAfter = 20 * time.Millisecond
		cfg.ArtifactPath = filepath.Join(arts, fmt.Sprintf("runner-%d.bin", i))
		return cfg
	}
	killHour := 1 + int(uint64(mcfg.Seed)%uint64(mcfg.Hours-2))
	victim := int(uint64(mcfg.Seed) % runners)
	results := make([]*StreamResults, runners)
	errs := make([]error, runners)
	var wg sync.WaitGroup
	for i := 0; i < runners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := runner(i)
			if i == victim {
				cfg.StopAfter = StreamHourStage(killHour)
			}
			results[i], errs[i] = RunStream(cfg)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		switch {
		case i == victim && !errors.Is(err, pipeline.ErrStopped):
			t.Fatalf("killed runner %d: got error %v, want pipeline.ErrStopped", i, err)
		case i != victim && err != nil:
			t.Fatalf("surviving runner %d: %v", i, err)
		}
	}
	// The survivors finished by stealing: every stage the killed runner
	// owned after its kill hour has a claim file naming a survivor. (The
	// resume below sweeps satisfied claims, so look now.)
	gate := newFileGate(nil, filepath.Join(dir, "shards"), victim, runners, 0)
	stolen := 0
	for h := killHour + 1; h < mcfg.Hours; h++ {
		stages := []string{StreamHourStage(h)}
		for i := 0; i < runners; i++ {
			stages = append(stages, fmt.Sprintf("%s/shard-%d", StreamHourStage(h), i))
		}
		for _, s := range stages {
			if gate.owner(s) != victim {
				continue
			}
			stolen++
			b, err := os.ReadFile(filepath.Join(gate.dir, strings.ReplaceAll(s, "/", "_")+".steal"))
			if err != nil {
				t.Errorf("%s, owned by the killed runner, was not stolen: %v", s, err)
			} else if who := strings.TrimSpace(string(b)); who == fmt.Sprint(victim) {
				t.Errorf("%s claimed by the killed runner itself", s)
			}
		}
	}
	if stolen == 0 {
		t.Fatal("the killed runner owned no stage after its kill hour — nothing was left to steal")
	}

	if results[victim], err = RunStream(runner(victim)); err != nil {
		t.Fatalf("resumed runner %d: %v", victim, err)
	}

	inproc := streamTestConfig(t)
	inproc.Shards = runners
	inproc.ShardIndex = -1
	all, err := RunStream(inproc)
	if err != nil {
		t.Fatal(err)
	}
	compareStreams(t, "monolithic", "in-process shards", mono, all)
	assertStreamGolden(t, streamGoldenOf(all), golden)

	for i, res := range results {
		label := fmt.Sprintf("runner %d", i)
		if i == victim {
			label += " (killed@" + StreamHourStage(killHour) + ", resumed)"
		}
		compareStreams(t, "monolithic", label, mono, res)
		assertStreamGolden(t, streamGoldenOf(res), golden)
		art, err := os.ReadFile(runner(i).ArtifactPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(art, monoArt) {
			t.Errorf("%s: rolling artifact differs from the monolithic run's", label)
		}
	}

	rep, err := statefsck.Scan(statefs.Disk{}, dir, statefsck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings {
		if f.Class == statefsck.ClassCorrupt || f.Class == statefsck.ClassBrokenChain {
			t.Errorf("state dir: %s is %s: %s", f.Path, f.Class, f.Detail)
		}
	}
}

// A stream that cannot write its span log keeps the hours it probed: the
// failure is logged, not returned. (A batch run fails on it.)
func TestStreamTraceWriteFailureIsLogged(t *testing.T) {
	dir := t.TempDir()
	// A file where the metrics directory belongs makes the write fail.
	if err := os.WriteFile(filepath.Join(dir, "metrics"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var logged bool
	res, err := RunStream(StreamConfig{
		Seed: randx.Seed(7), Scale: world.ScaleTiny, Hours: 2, StateDir: dir,
		Log: func(format string, args ...any) {
			logged = logged || strings.HasPrefix(format, "trace: write failed")
		},
	})
	if err != nil || res.FinalHash == "" {
		t.Fatalf("stream lost its results to a trace-write failure: %v", err)
	}
	if !logged {
		t.Error("trace-write failure was not logged")
	}
}
