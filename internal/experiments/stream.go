package experiments

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/metrics"
	"clientmap/internal/serve"
	"clientmap/internal/sim"
	"clientmap/internal/snapshot"
	"clientmap/internal/stream"
)

// Stream stage names: hour k checkpoints as "stream-hour-<k>" between
// the ephemeral stream-setup and stream-finish bookends.
const (
	StageStreamSetup  = "stream-setup"
	StageStreamHour   = "stream-hour-"
	StageStreamFinish = "stream-finish"
)

// StreamHourStage returns the checkpoint stage name of streaming hour k
// — handy for Config.StopAfter in kill/resume tests.
func StreamHourStage(k int) string { return fmt.Sprintf("%s%d", StageStreamHour, k) }

// StreamConfig is Config under the name streaming callers have always
// spelled (cmd/bench among them): probing never "finishes", it loops
// hour by hour over a churning world, decaying old evidence and emitting
// a rolling serving artifact.
type StreamConfig = Config

// streamEnv is the streaming run's state beside the campaign env: the
// stream state machine and the rolling exporter.
type streamEnv struct {
	scfg     stream.Config
	exporter *serve.RollingExporter

	// mu guards the state machine — built at the first hour boundary, as
	// it needs the calibrated campaign for assignments and the pre-churn
	// world for the event plan — and hp, the plan of the newest hour.
	mu   sync.Mutex
	st   *stream.State
	senv *stream.Env
	hp   *stream.HourPlan
}

// plan returns hour k's plan, building the state machine on first use
// and beginning the hour on the hour's first call: its side effects
// (churn applied to the world, rates invalidated, the scheduler's
// selection) happen exactly once per process, whichever of the hour's
// shard builds, gather build or checkpoint decoder asks first. Every
// caller depends on hour k-1's stage, so hours begin in order and a
// resumed run rebuilds exactly the state the original run advanced.
func (e *streamEnv) plan(env *campaignEnv, camp *cacheprobe.Campaign, k int) *stream.HourPlan {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.st == nil {
		asg := env.assignments(camp)
		e.st = stream.NewState(e.scfg, e.scfg.Churn.Plan(e.scfg.Hours, env.sys.World), asg)
		e.senv = &stream.Env{World: env.sys.World, Model: env.sys.Model, Asg: asg, Epoch: campStart}
		if lf := env.sys.Google.LazyFill(); lf != nil {
			e.senv.InvalidateRates = lf.Invalidate
		}
	}
	if e.hp == nil || e.hp.Hour != k {
		e.hp = e.st.BeginHour(e.senv)
	}
	return e.hp
}

// export writes a rolling view through the exporter, if one is set.
func (e *streamEnv) export(out *stream.ClientMapOut) error {
	if out == nil || e.exporter == nil {
		return nil
	}
	if _, _, err := e.exporter.Export(out.Map); err != nil {
		return fmt.Errorf("rolling artifact: %w", err)
	}
	return nil
}

// hourCodec persists an hour's HourDelta; its Pass is the hour's probing.
var hourCodec = &snapshot.Codec[*stepArtifact]{
	Kind:    stream.HourDeltaCodec.Kind,
	Version: stream.HourDeltaCodec.Version,
	Encode:  func(w *snapshot.Writer, a *stepArtifact) { stream.HourDeltaCodec.Encode(w, a.Hour) },
	Decode: func(r *snapshot.Reader) (*stepArtifact, error) {
		d, err := stream.HourDeltaCodec.Decode(r)
		if err != nil {
			return nil, err
		}
		return &stepArtifact{Pass: d.Pass, Hour: d}, nil
	},
}

// finish completes stream hour k once the scheduler's subset is probed:
// the DNS-logs channel ticks, evidence folds in and decays out, and the
// rolling map emits. A restored hour replays through the same
// BeginHour/FinishHour path once its recorded churn events match the
// re-derived plan's, and emits nothing: RunStream exports the final view.
func (e *streamEnv) finish(env *campaignEnv, a *stepArtifact, k int) error {
	hp := e.plan(env, a.Camp, k)
	restored := a.Hour != nil
	if !restored {
		a.Hour = &stream.HourDelta{Hour: k, Events: hp.Events, Pass: a.Pass, DNS: stream.DNSTick(e.senv, e.st.Cfg, k)}
	} else if a.Hour.Hour != k || !slices.Equal(a.Hour.Events, hp.Events) {
		return fmt.Errorf("checkpoint holds hour %d with %d churn events, hour %d's plan derives %d",
			a.Hour.Hour, len(a.Hour.Events), k, len(hp.Events))
	}
	_, out := e.st.FinishHour(hp, a.Hour, e.senv)
	if restored {
		return nil
	}
	return e.export(out)
}

// StreamResults bundles everything a streaming run produced.
type StreamResults struct {
	Cfg      Config
	Sys      *sim.System
	Campaign *cacheprobe.Campaign
	// State is the final scheduler + decay-ledger state; its Views slice
	// is the rolling per-hour summary.
	State *stream.State
	// Report is the end-of-run summary with the coverage-lag table.
	Report *stream.Report
	// FinalMap/FinalHash is the rolling artifact as of the last hour
	// (rebuilt deterministically — identical to the last emitted file).
	FinalMap  *serve.ClientMap
	FinalHash string
	Trace     *metrics.Trace
}

// RunStream executes the continuous measurement mode: the campaign spine
// with simulated hours as its steps (world ─ stream-setup ─ scope-prescan
// ─ calibration ─ stream-hour-0 … stream-hour-(H-1) ─ stream-finish).
// Every hour is its own resumable checkpoint: kill after hour k, resume
// at hour k+1 with the scheduler state replayed from the hour deltas.
func RunStream(cfg Config) (*StreamResults, error) {
	if cfg.Hours == 0 {
		cfg.Hours = 24
	}
	cfg, err := cfg.prepare(true)
	if err != nil {
		return nil, err
	}
	c, e := newStreamRun(cfg)
	if err := c.runner.Run(noCtx()); err != nil {
		return nil, err
	}
	c.writeTrace()
	camp, st, senv := c.last().Out().Camp, e.st, e.senv
	res := &StreamResults{
		Cfg:      cfg,
		Sys:      c.world.Out(),
		Campaign: camp,
		State:    st,
		Report:   st.Report(),
		Trace:    c.trace,
	}
	if out := st.FinalMap(senv); out != nil {
		res.FinalMap, res.FinalHash = out.Map, out.Hash
		// A fully restored run replayed checkpoints without writing; make
		// sure the artifact on disk is the final rolling view (deduped by
		// hash when the live path already wrote it).
		if err := e.export(out); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// newStreamRun registers the streaming run: the campaign spine with
// hours as its steps, each hour finished by the stream state machine.
func newStreamRun(cfg Config) (*chain, *streamEnv) {
	e := &streamEnv{scfg: stream.Config{
		Seed:      cfg.Seed,
		Scale:     cfg.Scale.Name,
		Hours:     cfg.Hours,
		EmitEvery: cfg.EmitEvery,
		Churn:     cfg.Churn,
	}.WithDefaults()}
	if cfg.ArtifactPath != "" {
		e.exporter = &serve.RollingExporter{Path: cfg.ArtifactPath, FS: cfg.FS}
	}
	c := newChain(cfg, mode{
		setupName:  StageStreamSetup,
		finishName: StageStreamFinish,
		fp: fmt.Sprintf("%s faults=%s retry=%s stream{%s}", cfg.baseFP(),
			cfg.Faults.Fingerprint(), cfg.Retry.Fingerprint(), e.scfg.Fingerprint()),
		window:   time.Duration(cfg.Hours) * time.Hour,
		steps:    cfg.Hours,
		stepName: StreamHourStage,
		stepFP:   func(k int) string { return fmt.Sprintf(" hour=%d", k) },
		codec:    hourCodec,
		plan: func(env *campaignEnv, camp *cacheprobe.Campaign, k int) *cacheprobe.Assignments {
			return e.plan(env, camp, k).Sub
		},
		finish: e.finish,
	})
	return c, e
}

// MetricsLedger assembles the streaming run's deterministic metrics:
// the campaign's checkpoint-folded instrumentation plus "stream/…"
// counters derived from the replayable state — never from live registry
// values, so the ledger is bit-identical across worker counts and
// kill/resume.
func (r *StreamResults) MetricsLedger() metrics.Ledger {
	led := campaignLedger(r.Campaign)
	st := r.State
	if st == nil {
		return led
	}
	var scheduled, probes, hits, fresh, decayed, events, emits int64
	for _, v := range st.Views {
		scheduled += int64(v.Scheduled)
		probes += int64(v.Probes)
		hits += int64(v.Hits)
		fresh += int64(v.FreshScopes)
		decayed += int64(v.DecayedScopes)
		events += int64(v.Events)
		if v.MapHash != "" {
			emits++
		}
	}
	led["stream/hours"] = int64(st.Hour)
	led["stream/scheduled"] = scheduled
	led["stream/probes"] = probes
	led["stream/hits"] = hits
	led["stream/fresh_scopes"] = fresh
	led["stream/decayed_scopes"] = decayed
	led["stream/churn_events"] = events
	led["stream/emits"] = emits
	led["stream/drift_ticks"] = int64(st.DriftTicks)
	led["stream/diurnal_ticks"] = int64(st.DiurnalTicks)
	led["stream/active_scopes"] = int64(st.Ledger.ActiveScopes())
	led["stream/dns_active"] = int64(st.Ledger.DNSActive())
	var reflected, pending, lagSum int64
	for _, o := range st.Outcomes {
		if o.ReflectedHour >= 0 {
			reflected++
			lagSum += int64(o.Lag())
		} else {
			pending++
		}
	}
	led["stream/lag_reflected"] = reflected
	led["stream/lag_pending"] = pending
	led["stream/lag_hours_sum"] = lagSum
	if r.Report != nil && r.Report.ChromiumOffHour >= 0 {
		led["stream/chromium_base_24s"] = int64(r.Report.ChromiumBase)
		led["stream/chromium_end_24s"] = int64(r.Report.ChromiumEnd)
	}
	return led
}

// MetricsJSON renders the streaming ledger as canonical JSON.
func (r *StreamResults) MetricsJSON() []byte {
	return r.MetricsLedger().JSON()
}
