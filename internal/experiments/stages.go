package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"clientmap/internal/apnic"
	"clientmap/internal/asdb"
	"clientmap/internal/cdn"
	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/core/datasets"
	"clientmap/internal/core/dnslogs"
	"clientmap/internal/pipeline"
	"clientmap/internal/roots"
	"clientmap/internal/sim"
	"clientmap/internal/snapshot"
)

// Batch stage names. The cache-probing chain checkpoints at every
// boundary — most importantly after every probing pass — while the DITL
// chain and the baseline collections run concurrently with it.
// StageProbePass is a prefix: pass k checkpoints as "probe-pass-<k>".
const (
	StageSetup     = "campaign-setup"
	StageProbePass = "probe-pass-"
	StageFinish    = "campaign-finish"
	StageDNSLogs   = "ditl-dnslogs"
	StageBaselines = "baselines"
	StageViews     = "dataset-views"
)

// ProbePassStage returns the checkpoint stage name of probing pass k —
// handy for Config.StopAfter in kill/resume tests and drills.
func ProbePassStage(k int) string { return fmt.Sprintf("%s%d", StageProbePass, k) }

// ShardStage returns the checkpoint stage name of scatter shard i of
// probing pass k (only registered when Config.Shards > 1) — handy for
// StopAfter in distributed kill/resume tests.
func ShardStage(k, i int) string { return fmt.Sprintf("%s/shard-%d", ProbePassStage(k), i) }

// baselineArtifact bundles the comparison-dataset collections that are
// checkpointed as one stage: one day of CDN collections, the APNIC
// estimates, and the ASdb categories.
type baselineArtifact struct {
	CDN   *cdn.Datasets
	APNIC *apnic.Estimates
	ASDB  *asdb.DB
}

// viewsArtifact holds the derived dataset views at both granularities —
// the last persisted stage, so a re-render with unchanged inputs decodes
// everything and probes nothing.
type viewsArtifact struct {
	PfxCacheProbe, PfxDNSLogs, PfxUnion, PfxMSClients, PfxMSResolvers     *datasets.PrefixDataset
	ASCacheProbe, ASDNSLogs, ASUnion, ASAPNIC, ASMSClients, ASMSResolvers *datasets.ASDataset
}

// passCodec persists a pass stage's PassDelta alone; probeStep folds a
// decoded one into the upstream campaign.
var passCodec = &snapshot.Codec[*stepArtifact]{
	Kind:    snapshot.PassDeltaCodec.Kind,
	Version: snapshot.PassDeltaCodec.Version,
	Encode:  func(w *snapshot.Writer, a *stepArtifact) { snapshot.PassDeltaCodec.Encode(w, a.Pass) },
	Decode: func(r *snapshot.Reader) (*stepArtifact, error) {
		d, err := snapshot.PassDeltaCodec.Decode(r)
		return &stepArtifact{Pass: d}, err
	},
}

// Kinds of the two composite checkpoints only this package writes.
// statefsck checks them by checksum alone.
const (
	kindBaselines = "experiments.Baselines"
	kindViews     = "experiments.Views"
)

var baselinesCodec = &snapshot.Codec[*baselineArtifact]{
	Kind:    kindBaselines,
	Version: 1,
	Encode: func(w *snapshot.Writer, b *baselineArtifact) {
		snapshot.EncodeCDN(w, b.CDN)
		snapshot.EncodeAPNIC(w, b.APNIC)
		snapshot.EncodeASDB(w, b.ASDB)
	},
	Decode: func(r *snapshot.Reader) (*baselineArtifact, error) {
		b := &baselineArtifact{}
		var err error
		if b.CDN, err = snapshot.DecodeCDN(r); err != nil {
			return nil, err
		}
		if b.APNIC, err = snapshot.DecodeAPNIC(r); err != nil {
			return nil, err
		}
		if b.ASDB, err = snapshot.DecodeASDB(r); err != nil {
			return nil, err
		}
		return b, nil
	},
}

var viewsCodec = &snapshot.Codec[*viewsArtifact]{
	Kind:    kindViews,
	Version: 1,
	Encode: func(w *snapshot.Writer, v *viewsArtifact) {
		for _, d := range v.prefixViews() {
			snapshot.EncodePrefixDataset(w, d)
		}
		for _, d := range v.asViews() {
			snapshot.EncodeASDataset(w, d)
		}
	},
	Decode: func(r *snapshot.Reader) (*viewsArtifact, error) {
		v := &viewsArtifact{}
		pfx := []**datasets.PrefixDataset{
			&v.PfxCacheProbe, &v.PfxDNSLogs, &v.PfxUnion, &v.PfxMSClients, &v.PfxMSResolvers,
		}
		for _, p := range pfx {
			d, err := snapshot.DecodePrefixDataset(r)
			if err != nil {
				return nil, err
			}
			*p = d
		}
		as := []**datasets.ASDataset{
			&v.ASCacheProbe, &v.ASDNSLogs, &v.ASUnion, &v.ASAPNIC, &v.ASMSClients, &v.ASMSResolvers,
		}
		for _, a := range as {
			d, err := snapshot.DecodeASDataset(r)
			if err != nil {
				return nil, err
			}
			*a = d
		}
		return v, nil
	},
}

func (v *viewsArtifact) prefixViews() []*datasets.PrefixDataset {
	return []*datasets.PrefixDataset{
		v.PfxCacheProbe, v.PfxDNSLogs, v.PfxUnion, v.PfxMSClients, v.PfxMSResolvers,
	}
}

func (v *viewsArtifact) asViews() []*datasets.ASDataset {
	return []*datasets.ASDataset{
		v.ASCacheProbe, v.ASDNSLogs, v.ASUnion, v.ASAPNIC, v.ASMSClients, v.ASMSResolvers,
	}
}

// batchRun is the batch evaluation: the campaign chain plus the side
// chains that turn it into the paper's tables.
type batchRun struct {
	*chain
	dnsLogs   *pipeline.Stage[*dnslogs.Result]
	baselines *pipeline.Stage[*baselineArtifact]
	views     *pipeline.Stage[*viewsArtifact]
}

// newBatchRun registers every stage of the evaluation — the spine with
// probing passes as its steps, and the side chains beside it:
//
//	world ─ campaign-setup ─ scope-prescan ─ calibration ─ probe-pass-0 … probe-pass-N ─ campaign-finish
//	  ├──── ditl-dnslogs ────────────────────────────────────────────┐
//	  ├──── baselines ───────────────────────────────────────────────┤
//	  └──────────────────────────────────────────────────────────────┴─ dataset-views
//
// The world and baseline chains never touch the faulty transports, so
// their fingerprints carry no reliability knobs.
func newBatchRun(cfg Config) *batchRun {
	base := cfg.baseFP()
	campFP := fmt.Sprintf("%s faults=%s retry=%s health=%s", base, cfg.Faults.Fingerprint(), cfg.Retry.Fingerprint(), cfg.Health.Fingerprint())
	br := &batchRun{chain: newChain(cfg, mode{
		setupName:  StageSetup,
		finishName: StageFinish,
		fp:         campFP,
		window:     cfg.CampaignDuration,
		steps:      cfg.Passes,
		stepName:   ProbePassStage,
		stepFP: func(k int) string {
			return fmt.Sprintf(" dur=%s passes=%d pass=%d", cfg.CampaignDuration, cfg.Passes, k)
		},
		codec: passCodec,
		// Every pass probes the full assignment.
		plan: func(env *campaignEnv, camp *cacheprobe.Campaign, _ int) *cacheprobe.Assignments {
			return env.assignments(camp)
		},
		finish: func(*campaignEnv, *stepArtifact, int) error { return nil },
	})}
	r := br.runner
	campEnd := campStart.Add(cfg.CampaignDuration)

	logsFP := fmt.Sprintf("%s trace=%s cap=%d end=%s retry=%s", base, cfg.TraceDuration, cfg.PerSourceHourCap, campEnd.Format(time.RFC3339), cfg.Retry.Fingerprint())
	br.dnsLogs = pipeline.AddStage(r, StageDNSLogs, logsFP, deps(br.world), snapshot.DNSLogsCodec,
		func(ctx context.Context) (*dnslogs.Result, error) {
			return runDNSLogs(cfg, br.world.Out(), campEnd)
		})

	baseFP := fmt.Sprintf("%s day=%s", base, campEnd.Add(-24*time.Hour).Format(time.RFC3339))
	br.baselines = pipeline.AddStage(r, StageBaselines, baseFP, deps(br.world), baselinesCodec,
		func(ctx context.Context) (*baselineArtifact, error) {
			sys := br.world.Out()
			return &baselineArtifact{
				CDN:   cdn.Collect(sys.Model, campEnd.Add(-24*time.Hour)),
				APNIC: apnic.Estimate(sys.World),
				ASDB:  asdb.FromWorld(sys.World, asdb.DefaultCoverage),
			}, nil
		})

	br.views = pipeline.AddStage(r, StageViews, base, deps(br.world, br.last, br.dnsLogs, br.baselines), viewsCodec,
		func(ctx context.Context) (*viewsArtifact, error) {
			return buildViews(br.last.Out().Camp, br.dnsLogs.Out(), br.baselines.Out(), br.world.Out().RV), nil
		})
	return br
}

// probeStep registers the probing of campaign step k on top of up — a
// batch pass or a stream hour, the one step path both modes share. With
// cfg.Shards > 1 the step first scatters into shard sub-stages
// ("<step>/shard-i", each its own checkpoint, so shards resume
// independently); the gather stage keeps the step's canonical name, so
// StopAfter targets, resume logs and downstream dependencies are
// unchanged, and any upstream change cascades through every shard into
// the gather. A restored delta folds into the upstream campaign through
// the same Apply a probed one takes, so a restored chain and a probed
// chain cannot diverge.
func (c *chain) probeStep(k int, up link) *pipeline.Stage[*stepArtifact] {
	cfg, setup := c.cfg, c.setup
	name, fp := c.stepName(k), c.fp+c.stepFP(k)
	codec := *c.codec
	codec.Decode = func(r *snapshot.Reader) (*stepArtifact, error) {
		a, err := c.codec.Decode(r)
		if err != nil {
			return nil, err
		}
		if err := up.checkBase(a.Pass.Base); err != nil {
			return nil, err
		}
		a.Camp = up.camp()
		if err := c.finish(setup.Out(), a, k); err != nil {
			return nil, err
		}
		a.Pass.Apply(a.Camp)
		return a, nil
	}
	var shards []*pipeline.Stage[*cacheprobe.ShardResult]
	if cfg.Shards > 1 {
		shards = pipeline.FanOut(c.runner, name, fp, cfg.Shards, deps(setup, up.handle), snapshot.ShardResultCodec,
			func(i int) func(ctx context.Context) (*cacheprobe.ShardResult, error) {
				return func(ctx context.Context) (*cacheprobe.ShardResult, error) {
					env, camp := setup.Out(), up.camp()
					asg := c.plan(env, camp, k)
					units := cacheprobe.PartitionPass(asg, k, cfg.Shards)[i]
					return env.prober.ProbeShard(ctx, env.pops, asg, k, campStart, camp, units), nil
				}
			})
	}
	gdeps := append(deps(setup, up.handle), pipeline.Handles(shards)...)
	return pipeline.AddStage(c.runner, name, fp, gdeps, &codec,
		func(ctx context.Context) (*stepArtifact, error) {
			env, camp := setup.Out(), up.camp()
			asg := c.plan(env, camp, k)
			var d *cacheprobe.PassDelta
			var err error
			if shards == nil {
				d, err = env.prober.ProbePassDelta(ctx, env.pops, asg, k, campStart, camp)
			} else {
				results := make([]*cacheprobe.ShardResult, len(shards))
				for i, s := range shards {
					results[i] = s.Out()
				}
				d, err = env.prober.GatherPass(env.pops, asg, k, campStart, camp, results)
			}
			if err != nil {
				return nil, err
			}
			d.Base = up.hash()
			a := &stepArtifact{Camp: camp, Pass: d}
			return a, c.finish(env, a, k)
		})
}

// runDNSLogs generates the DITL traces and crawls them — technique 2 as
// one stage: the crawl result is the artifact, and the trace files land
// in StateDir/traces (so a resumed run does not regenerate them), or in
// a temp dir that is removed when the crawl is done.
func runDNSLogs(cfg Config, sys *sim.System, campEnd time.Time) (*dnslogs.Result, error) {
	dir := filepath.Join(cfg.StateDir, "traces")
	if cfg.StateDir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	} else {
		tmp, err := os.MkdirTemp("", "clientmap-ditl-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	gen := roots.NewGenerator(sys.Model)
	_, err := gen.Generate(roots.GenConfig{
		Start:            campEnd.Add(-cfg.TraceDuration),
		Duration:         cfg.TraceDuration,
		PerSourceHourCap: cfg.PerSourceHourCap,
	}, func(letter string) (io.WriteCloser, error) {
		return os.Create(filepath.Join(dir, "root-"+letter+".ditl"))
	})
	if err != nil {
		return nil, fmt.Errorf("trace generation: %w", err)
	}
	res, err := dnslogs.Crawl(dnslogs.Config{
		// The ingester shares the campaign's retry policy: transient
		// trace-open failures retry with the same attempt/backoff knobs.
		OpenAttempts: cfg.Retry.Attempts,
		OpenBackoff:  cfg.Retry.Backoff,
	}, func(letter string) (io.ReadCloser, error) {
		return os.Open(filepath.Join(dir, "root-"+letter+".ditl"))
	})
	if err != nil {
		return nil, fmt.Errorf("dns logs: %w", err)
	}
	return res, nil
}
