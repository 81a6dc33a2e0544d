package experiments

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"clientmap/internal/clockx"
	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/metrics"
	"clientmap/internal/pipeline"
	"clientmap/internal/sim"
	"clientmap/internal/snapshot"
	"clientmap/internal/statefsck"
	"clientmap/internal/stream"
)

// Names of the spine stages both modes register. The two ephemeral
// bookends (setup, finish) carry per-mode names — see mode.
const (
	StageWorld     = "world"
	StagePreScan   = "scope-prescan"
	StageCalibrate = "calibration"
)

// campStart is when every campaign starts: the simulation epoch. Time
// anchors are computed from it and the configured window up front rather
// than read off the shared simulated clock mid-run, so concurrent chains
// observe the same timeline no matter how the scheduler interleaves
// them, and a resumed process reproduces the original schedule exactly.
var campStart = clockx.Epoch

// campaignEnv is the in-memory (non-serializable) environment of the
// probing chain: the prober wired to the simulated network and the
// discovered PoPs. It is rebuilt by an ephemeral stage on every run —
// rebuilding is a handful of discovery queries, while the measurements
// the chain checkpoints are hours of probing.
type campaignEnv struct {
	sys    *sim.System
	prober *cacheprobe.Prober
	pops   map[string]*cacheprobe.Vantage

	asgOnce sync.Once
	asg     *cacheprobe.Assignments
}

// assignments lazily builds the probe plan from the campaign state. Only
// steps that actually run need it; a fully restored chain never pays
// for the geolocation sweep.
func (e *campaignEnv) assignments(camp *cacheprobe.Campaign) *cacheprobe.Assignments {
	e.asgOnce.Do(func() {
		e.asg = e.prober.BuildAssignments(e.pops, e.sys.PoPCoords(), camp)
	})
	return e.asg
}

// stepArtifact is a chain step's in-memory artifact: the cumulative
// campaign for downstream consumers, plus the step's own delta — the
// only part that checkpoints. A batch pass sets Pass; a stream hour sets
// Hour, whose Pass is that hour's probing.
type stepArtifact struct {
	Camp *cacheprobe.Campaign
	Pass *cacheprobe.PassDelta
	Hour *stream.HourDelta
}

// link is the newest checkpoint of the delta chain — the calibration,
// then each step in turn. The next step depends on handle, folds its
// delta into camp(), and records hash() as the base the delta applies
// to, so any upstream change cascades down the whole chain.
type link struct {
	handle pipeline.Handle
	camp   func() *cacheprobe.Campaign
	hash   func() string
}

// checkBase rejects a restored delta recorded against a different
// upstream checkpoint: the stage rebuilds instead of silently corrupting
// the fold.
func (l link) checkBase(base string) error {
	if up := l.hash(); base != up {
		return fmt.Errorf("delta applies to base %.12s, upstream checkpoint is %.12s", base, up)
	}
	return nil
}

// mode is what a campaign flavour adds to the shared spine.
type mode struct {
	// setupName and finishName name the ephemeral bookend stages. They
	// differ per mode only because stage names feed the fingerprints of
	// checkpoints already in operators' state directories.
	setupName, finishName string
	// fp is the campaign-chain config fingerprint: every knob that
	// changes what the chain measures. The reliability knobs are part of
	// it — a checkpoint probed under one fault model or retry policy is
	// stale under another — and the probe pool size (GOMAXPROCS)
	// deliberately is not: it is a pure throughput knob with bit-identical
	// results, so checkpoints written at one pool size resume at any other.
	fp string
	// window is the probing window and steps how many steps divide it
	// (passes of a batch campaign, hours of a stream).
	window time.Duration
	steps  int
	// Step k is one probing step (probeStep), named stepName(k), its
	// config fingerprint fp+stepFP(k); codec persists its delta alone.
	// plan is what it probes — the same plan on every call, as each shard
	// build and the gather ask. finish completes its artifact: on a build
	// after the probed delta folded into a.Camp, on a restore before.
	stepName func(k int) string
	stepFP   func(k int) string
	codec    *snapshot.Codec[*stepArtifact]
	plan     func(env *campaignEnv, camp *cacheprobe.Campaign, k int) *cacheprobe.Assignments
	finish   func(env *campaignEnv, a *stepArtifact, k int) error
}

// chain is a registered campaign and the handles result assembly needs.
type chain struct {
	cfg Config
	mode
	runner *pipeline.Runner
	trace  *metrics.Trace
	world  *pipeline.Stage[*sim.System]
	setup  *pipeline.Stage[*campaignEnv]
	// last is the final step; its artifact holds the finished campaign.
	last *pipeline.Stage[*stepArtifact]
}

func deps(hs ...pipeline.Handle) []pipeline.Handle { return hs }

// baseFP fingerprints what every stage depends on: the world.
func (c Config) baseFP() string { return fmt.Sprintf("seed=%d scale=%+v", c.Seed, c.Scale) }

// newChain registers the spine every campaign runs (§3.1):
//
//	world ─ setup ─ scope-prescan ─ calibration ─ step-0 … step-(N-1) ─ finish
//
// Each step is its own checkpoint boundary: kill after step k, resume at
// step k+1 with the upstream campaign decoded from disk and the step's
// delta folded in. The delta chain anchors on the calibration
// checkpoint: each delta's base hash is the previous step's artifact.
func newChain(cfg Config, m mode) *chain {
	c := &chain{cfg: cfg, mode: m, trace: metrics.NewTrace()}
	c.runner = pipeline.New(pipeline.Options{
		Dir:       cfg.StateDir,
		FS:        cfg.FS,
		Resume:    cfg.Resume,
		StopAfter: cfg.StopAfter,
		Gate:      cfg.gate(),
		Log:       cfg.logf,
		Trace:     c.trace,
		TraceTime: campStart,
	})
	r := c.runner

	c.world = pipeline.AddStage(r, StageWorld, cfg.baseFP(), nil, nil,
		func(ctx context.Context) (*sim.System, error) {
			return sim.New(sim.Config{Seed: cfg.Seed, Scale: cfg.Scale, Metrics: cfg.Metrics})
		})

	c.setup = pipeline.AddStage(r, m.setupName, m.fp, deps(c.world), nil,
		func(ctx context.Context) (*campaignEnv, error) {
			sys := c.world.Out()
			if cfg.Faults.Enabled() {
				sys.InjectFaults(cfg.Faults, campStart)
			}
			if cfg.Health.Enabled() {
				sys.EnableHealth(cfg.Health, campStart)
			}
			pcfg := sys.ProberConfig()
			// The prober's pass window is window/steps, so step k's
			// probes are scheduled inside step k's slice of the window.
			pcfg.Duration = m.window
			pcfg.Passes = m.steps
			pcfg.Retry = cfg.Retry
			pcfg.Metrics = cfg.Metrics
			pcfg.Trace = c.trace
			prober := sys.Prober(pcfg)
			pops, err := prober.DiscoverPoPs(ctx)
			if err != nil {
				return nil, fmt.Errorf("cache probing: %w", err)
			}
			return &campaignEnv{sys: sys, prober: prober, pops: pops}, nil
		})

	// The pre-scan and the calibration checkpoint the (still small)
	// cumulative campaign; every later step checkpoints only its own
	// delta, so per-step checkpoint size tracks the step's evidence
	// instead of growing with campaign length.
	prescan := pipeline.AddStage(r, StagePreScan, m.fp, deps(c.world, c.setup), snapshot.CampaignCodec,
		func(ctx context.Context) (*cacheprobe.Campaign, error) {
			camp := cacheprobe.NewCampaign()
			if err := c.setup.Out().prober.PreScan(ctx, camp); err != nil {
				return nil, fmt.Errorf("cache probing: %w", err)
			}
			return camp, nil
		})

	calibrate := pipeline.AddStage(r, StageCalibrate, m.fp, deps(c.setup, prescan), snapshot.CampaignCodec,
		func(ctx context.Context) (*cacheprobe.Campaign, error) {
			env := c.setup.Out()
			camp := prescan.Out()
			env.prober.Calibrate(ctx, env.pops, camp)
			return camp, nil
		})

	up := link{handle: calibrate, camp: calibrate.Out, hash: calibrate.ArtifactHash}
	for k := 0; k < m.steps; k++ {
		stage := c.probeStep(k, up)
		up = link{handle: stage, camp: func() *cacheprobe.Campaign { return stage.Out().Camp }, hash: stage.ArtifactHash}
		c.last = stage
	}

	pipeline.AddStage(r, m.finishName, "", deps(c.setup, c.last), nil,
		func(ctx context.Context) (struct{}, error) {
			c.setup.Out().prober.FinishProbing(campStart)
			return struct{}{}, nil
		})
	return c
}

// prepare is the head both entry points share: reject a bad
// configuration before any work, fill the defaults, and repair the state
// directory when resuming.
func (c Config) prepare(stream bool) (Config, error) {
	if err := c.Validate(stream); err != nil {
		return c, err
	}
	c = c.withDefaults()
	if c.Resume {
		c.fsckOnResume()
	}
	return c, nil
}

// writeTrace persists the span log of a finished run as JSON Lines under
// StateDir/metrics, through the state-I/O seam. The trace is
// observability, not a result (DESIGN §10), so a failed write is logged
// and the run keeps its results, in batch and stream mode alike.
func (c *chain) writeTrace() {
	cfg := c.cfg
	if cfg.StateDir == "" {
		return
	}
	// Shard runners write per-runner trace files: the span log records
	// what this process ran versus restored, and N processes must not
	// clobber one shared file.
	name := "trace.jsonl"
	if cfg.shardRunner() {
		name = fmt.Sprintf("trace-shard-%d.jsonl", cfg.ShardIndex)
	}
	path := filepath.Join(cfg.StateDir, "metrics", name)
	var buf bytes.Buffer
	err := c.trace.WriteJSONL(&buf)
	if err == nil {
		err = cfg.fs().WriteAtomic(path, buf.Bytes())
	}
	if err != nil {
		cfg.logf("trace: write failed: %v", err)
		return
	}
	cfg.logf("metrics: wrote %d trace spans to %s", c.trace.Len(), path)
}

// fsckOnResume repairs the state directory before a resuming run
// restores from it: corrupt or lineage-broken checkpoints are
// quarantined (resume then rebuilds exactly the damaged suffix), dead
// writers' temp litter and satisfied steal claims are swept. It never
// wedges a run — on any error resume proceeds and treats what it cannot
// read as a rebuild. The one-minute temp-file grace protects fleet
// members still writing into a shared directory.
func (c Config) fsckOnResume() {
	rep, err := statefsck.Repair(c.fs(), c.StateDir, statefsck.Options{MinTmpAge: time.Minute})
	if err != nil {
		c.logf("statefsck: %v (continuing; resume rebuilds what it cannot read)", err)
		return
	}
	if rep.Problems() > 0 {
		c.logf("statefsck: %s", rep.Summary())
	}
}
