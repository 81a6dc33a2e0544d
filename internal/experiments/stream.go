package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/metrics"
	"clientmap/internal/pipeline"
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
// stream state machine, built lazily at the first hour boundary (it
// needs the calibrated campaign for assignments and the pre-churn world
// for the event plan), and the rolling exporter.
type streamEnv struct {
	scfg     stream.Config
	exporter *serve.RollingExporter

	once sync.Once
	st   *stream.State
	senv *stream.Env
}

// stream returns the state machine, deriving the churn plan and the
// scheduler state on first use. Both the live hour stages and the
// checkpoint-replay decoders funnel through here, so a resumed run
// rebuilds exactly the state the original run advanced.
func (e *streamEnv) stream(env *campaignEnv, camp *cacheprobe.Campaign) (*stream.State, *stream.Env) {
	e.once.Do(func() {
		asg := env.assignments(camp)
		plan := e.scfg.Churn.Plan(e.scfg.Hours, env.sys.World)
		e.st = stream.NewState(e.scfg, plan, asg)
		e.senv = &stream.Env{
			World: env.sys.World,
			Model: env.sys.Model,
			Asg:   asg,
			Epoch: campStart,
		}
		if lf := env.sys.Google.LazyFill(); lf != nil {
			e.senv.InvalidateRates = lf.Invalidate
		}
	})
	return e.st, e.senv
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

// hourCodec builds hour k's checkpoint codec. Decoding verifies the
// delta's base hash against the upstream checkpoint AND the recorded
// churn events against the freshly re-derived plan, then replays the
// hour through the same BeginHour/FinishHour path a probed hour takes.
func (e *streamEnv) hourCodec(c *chain, k int, up link) *pipeline.Codec[*stepArtifact] {
	return &pipeline.Codec[*stepArtifact]{
		Kind:    snapshot.KindStreamDelta,
		Version: snapshot.VersionStreamDelta,
		Encode:  func(w *snapshot.Writer, a *stepArtifact) { stream.EncodeHourDelta(w, a.Hour) },
		Decode: func(r *snapshot.Reader) (*stepArtifact, error) {
			d, err := stream.DecodeHourDelta(r)
			if err != nil {
				return nil, err
			}
			if d.Hour != k {
				return nil, fmt.Errorf("checkpoint holds hour %d, stage is hour %d", d.Hour, k)
			}
			if err := up.checkBase(d.Pass.Base); err != nil {
				return nil, err
			}
			camp := up.camp()
			st, senv := e.stream(c.setup.Out(), camp)
			hp := st.BeginHour(senv)
			if len(hp.Events) != len(d.Events) {
				return nil, fmt.Errorf("hour %d: checkpoint has %d churn events, plan derives %d", k, len(d.Events), len(hp.Events))
			}
			for i := range hp.Events {
				if hp.Events[i] != d.Events[i] {
					return nil, fmt.Errorf("hour %d: churn event %d diverges from derived plan (%s)", k, i, d.Events[i].Describe())
				}
			}
			d.Pass.Apply(camp)
			st.FinishHour(hp, d, senv)
			return &stepArtifact{Camp: camp, Pass: d.Pass, Hour: d}, nil
		},
	}
}

// hour is the stream step: churn events apply, the adaptive scheduler
// picks this hour's probe subset, evidence folds in and decays out, the
// DNS-logs channel ticks, and the rolling map emits.
func (e *streamEnv) hour(c *chain, k int, up link) *pipeline.Stage[*stepArtifact] {
	hourFP := fmt.Sprintf("%s hour=%d", c.fp, k)
	return pipeline.AddStage(c.runner, StreamHourStage(k), hourFP, deps(c.setup, up.handle), e.hourCodec(c, k, up),
		func(ctx context.Context) (*stepArtifact, error) {
			env := c.setup.Out()
			camp := up.camp()
			st, senv := e.stream(env, camp)
			hp := st.BeginHour(senv)
			pass, err := env.prober.ProbePassDelta(ctx, env.pops, hp.Sub, k, campStart, camp)
			if err != nil {
				return nil, err
			}
			pass.Base = up.hash()
			d := &stream.HourDelta{
				Hour:   k,
				Events: hp.Events,
				Pass:   pass,
				DNS:    stream.DNSTick(senv, st.Cfg, k),
			}
			_, out := st.FinishHour(hp, d, senv)
			if err := e.export(out); err != nil {
				return nil, err
			}
			return &stepArtifact{Camp: camp, Pass: pass, Hour: d}, nil
		})
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
		window: time.Duration(cfg.Hours) * time.Hour,
		steps:  cfg.Hours,
		step:   e.hour,
	})
	if err := c.runner.Run(noCtx()); err != nil {
		return nil, err
	}
	if err := c.writeTrace(); err != nil {
		cfg.logf("trace: write failed: %v", err)
	}
	camp := c.last.Out().Camp
	st, senv := e.stream(c.setup.Out(), camp)
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
