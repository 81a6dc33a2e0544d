// Package experiments reproduces the paper's evaluation: it assembles the
// simulated measurement environment, runs both techniques and the
// comparison dataset collections, and computes every table and figure of
// the paper (Tables 1-5, Figures 1-7, and the headline statistics of §4).
//
// The evaluation runs as a staged pipeline (internal/pipeline): every
// expensive step — the scope pre-scan, the calibration, each probing
// pass, the DITL crawl, the baseline collections, the derived dataset
// views — checkpoints its artifact into Config.StateDir, and a run with
// Config.Resume picks up from whatever checkpoints match the current
// configuration. See stages.go for the stage graph.
package experiments

import (
	"fmt"
	"time"

	"clientmap/internal/apnic"
	"clientmap/internal/asdb"
	"clientmap/internal/cdn"
	"clientmap/internal/churn"
	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/core/datasets"
	"clientmap/internal/core/dnslogs"
	"clientmap/internal/faults"
	"clientmap/internal/health"
	"clientmap/internal/metrics"
	"clientmap/internal/randx"
	"clientmap/internal/routeviews"
	"clientmap/internal/sim"
	"clientmap/internal/statefs"
	"clientmap/internal/world"
)

// Dataset names used throughout the tables.
const (
	NameCacheProbe  = "cache probing"
	NameDNSLogs     = "DNS logs"
	NameUnion       = "cache probing ∪ DNS logs"
	NameAPNIC       = "APNIC"
	NameMSClients   = "Microsoft clients"
	NameMSResolvers = "Microsoft resolvers"
)

// Config parameterizes a campaign: the batch evaluation (Run) or the
// continuous measurement mode (RunStream). Both run the same chain —
// world, setup, scope pre-scan, calibration, then a delta-chained
// sequence of probing steps — and share every knob here except the few
// marked batch-only or stream-only.
type Config struct {
	Seed  randx.Seed
	Scale world.Scale
	// CampaignDuration is the cache-probing length (paper: 120 h).
	CampaignDuration time.Duration
	// Passes is how many assignment loops fit in the campaign.
	Passes int
	// TraceDuration is the DITL collection length (paper: 2 days).
	TraceDuration time.Duration
	// PerSourceHourCap bounds trace size (see roots.GenConfig).
	PerSourceHourCap int

	// Faults injects deterministic transport faults into the campaign's
	// measurement substrate — packet loss, duplication, latency jitter,
	// forced truncation, per-target outage windows. The zero value is the
	// perfectly reliable substrate. The fault seed is keyed to Seed; any
	// other field change invalidates the campaign-chain checkpoints.
	Faults faults.Config
	// Retry is the probers' (and the DITL ingester's) per-query retry
	// policy; the zero value is a single try, where timeouts count as
	// misses exactly as the paper's live probing treats them.
	Retry cacheprobe.Retry
	// Health is the graceful-degradation policy: per-target circuit
	// breakers over the measurement transports, hedged probes, and
	// vantage/PoP failover with coverage accounting. The zero value turns
	// the whole layer off. The policy seed is keyed to Seed; any other
	// field change invalidates the campaign-chain checkpoints. Batch
	// only: a stream's adaptive scheduler owns PoP liveness (withdrawn
	// PoPs get zero budget), and hit→PoP attribution must stay exact for
	// its decay ledger.
	Health health.Config

	// StateDir is the pipeline checkpoint directory; empty disables
	// checkpointing (the whole run happens in memory, as before).
	StateDir string
	// FS is the state-I/O seam every checkpoint, steal-claim file and
	// trace write goes through; nil means the durable on-disk
	// implementation (statefs.Disk). Tests inject statefs.Faulty to
	// drill torn writes, ENOSPC and silent bit rot against the exact
	// paths a campaign checkpoints.
	FS statefs.FS
	// Resume reuses checkpoints in StateDir whose fingerprints match the
	// current configuration, skipping the stages that produced them.
	Resume bool
	// Shards splits every probing step — a batch pass or a stream hour —
	// into this many scatter shards. 0 or 1 keeps the step monolithic;
	// N > 1 expands each step stage into N shard sub-stages (checkpointed
	// as "probe-pass-k/shard-i" or "stream-hour-k/shard-i") plus a gather
	// stage under the step's canonical name. Gathered results are
	// byte-identical to the single-process campaign for any shard count.
	Shards int
	// ShardIndex selects shard-runner mode: when ≥ 0 (and Shards > 1)
	// this process is runner ShardIndex of a fleet sharing StateDir — it
	// builds the stages it owns, restores the rest from the other
	// runners' checkpoints, and steals stragglers (see ShardStealAfter).
	// Requires StateDir and forces Resume. -1 (what DefaultConfig sets)
	// executes every shard in this one process, as does any index when
	// Shards ≤ 1.
	ShardIndex int
	// ShardDir holds the work-stealing claim files of a distributed
	// run; empty means StateDir/shards. Runners sharing a campaign must
	// share it.
	ShardDir string
	// ShardStealAfter is how long a shard runner waits on a stage's
	// owner before claiming the stage itself (scaled by ring distance so
	// stealers take turns); 0 means 5s. Real time — it paces the
	// straggler watchdog, not the campaign.
	ShardStealAfter time.Duration
	// StopAfter aborts the run right after the named stage checkpoints
	// (see ProbePassStage, ShardStage, StreamHourStage) — the test
	// stand-in for a mid-campaign kill. The run returns
	// pipeline.ErrStopped.
	StopAfter string
	// Log receives stage progress lines ("stage probe-pass-3: restored
	// checkpoint … — skipped"); nil discards them. All logging funnels
	// through Config.logf, so a nil Log is safe everywhere.
	Log func(format string, args ...any)

	// Hours is the stream length in simulated hours (RunStream only; 0
	// means 24): each hour is one adaptive probing pass plus one DNS-logs
	// tick, and its own resumable checkpoint. It replaces
	// CampaignDuration and Passes, which streaming ignores.
	Hours int
	// EmitEvery emits the rolling serving artifact every N simulated
	// hours (stream only; 0 = every hour).
	EmitEvery int
	// Churn drives the world's evolution while streaming; the event seed
	// is keyed to Seed. The zero value streams over a static world.
	Churn churn.Config
	// ArtifactPath, when set, receives the rolling serve.ClientMap on
	// every emit hour (stream only; atomic replace, deduped by payload
	// hash) — the file clientmapd -reload watches.
	ArtifactPath string

	// Metrics is the run's instrumentation registry. Every layer of the
	// assembled system counts into it — the prober under "cacheprobe/…",
	// the transports under "dnsnet/…", the Google front end under
	// "gpdns/…" — and the campaign stages fold their snapshot deltas into
	// the checkpointed Campaign.Metrics ledger. Nil means Run creates a
	// private registry, so the ledger is always populated; pass one
	// explicitly to expose live values (e.g. on a -debug-addr endpoint).
	Metrics *metrics.Registry
}

// logf forwards to Config.Log when set and discards otherwise — the one
// nil-check for the whole package (and, via pipeline.Options.Log, for the
// stage runner too).
func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// DefaultConfig returns a paper-faithful configuration at the given scale.
func DefaultConfig(seed randx.Seed, scale world.Scale) Config {
	return Config{
		Seed:             seed,
		Scale:            scale,
		CampaignDuration: 120 * time.Hour,
		Passes:           9,
		TraceDuration:    48 * time.Hour,
		PerSourceHourCap: 8,
		Shards:           1,
		ShardIndex:       -1,
	}
}

// withDefaults fills unset knobs field by field from DefaultConfig.
// Run used to swap in the whole default configuration whenever
// CampaignDuration was zero, silently discarding any Passes,
// TraceDuration or PerSourceHourCap the caller had set; each field now
// defaults independently.
func (c Config) withDefaults() Config {
	d := DefaultConfig(c.Seed, c.Scale)
	if c.CampaignDuration <= 0 {
		c.CampaignDuration = d.CampaignDuration
	}
	if c.Passes <= 0 {
		c.Passes = d.Passes
	}
	if c.TraceDuration <= 0 {
		c.TraceDuration = d.TraceDuration
	}
	if c.PerSourceHourCap <= 0 {
		c.PerSourceHourCap = d.PerSourceHourCap
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Shards == 1 || c.ShardIndex < 0 {
		c.ShardIndex = -1
	}
	if c.ShardStealAfter <= 0 {
		c.ShardStealAfter = 5 * time.Second
	}
	if c.shardRunner() {
		// A shard runner obtains the stages it does not own by restoring
		// the other runners' checkpoints — resume is the mechanism, not an
		// option.
		c.Resume = true
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	// The fault, health and churn models draw from the run's one seed.
	c.Faults.Seed, c.Health.Seed, c.Churn.Seed = c.Seed, c.Seed, c.Seed
	return c
}

// shardRunner reports whether this process is one runner of a
// distributed campaign rather than the whole campaign.
func (c Config) shardRunner() bool { return c.Shards > 1 && c.ShardIndex >= 0 }

// fs resolves the state-I/O seam (statefs.Disk when unset).
func (c Config) fs() statefs.FS { return statefs.Or(c.FS) }

// Validate is the one place a configuration is rejected, before any
// stage runs, for both entry points and (through them) both commands —
// which is why each message names the field and the flag bound to it. It
// checks the raw configuration, so a negative Shards is an error rather
// than a silent fallback to 1; the zero value must stay valid (Shards 0
// is monolithic, ShardIndex is ignored without sharding), so the two
// stricter rules of a command line live in cliflags.Check. stream says
// which entry point is asking.
func (c Config) Validate(stream bool) error {
	switch {
	case c.Shards < 0:
		return fmt.Errorf("experiments: Shards (-shards) must be non-negative, got %d", c.Shards)
	case c.ShardIndex < -1:
		return fmt.Errorf("experiments: ShardIndex (-shard-index) must be -1 (run every shard) or a shard number, got %d", c.ShardIndex)
	case c.ShardIndex >= max(c.Shards, 1):
		return fmt.Errorf("experiments: ShardIndex (-shard-index) %d out of range for %d shard(s) (-shards)", c.ShardIndex, max(c.Shards, 1))
	case c.shardRunner() && c.StateDir == "":
		return fmt.Errorf("experiments: shard-runner mode (-shard-index ≥ 0) requires StateDir (-state-dir): runners share checkpoints through it")
	case c.Resume && c.StateDir == "":
		return fmt.Errorf("experiments: Resume (-resume) requires StateDir (-state-dir)")
	case c.Hours < 0:
		return fmt.Errorf("experiments: Hours (-stream) must be non-negative, got %d", c.Hours)
	case c.EmitEvery < 0:
		return fmt.Errorf("experiments: EmitEvery (-emit-every) must be non-negative, got %d", c.EmitEvery)
	}
	if !stream {
		switch {
		case c.Hours > 0:
			return fmt.Errorf("experiments: Hours (-stream) asks for a stream; Run is the batch evaluation, use RunStream")
		case c.Churn.Enabled():
			return fmt.Errorf("experiments: Churn (-churn) requires streaming (-stream)")
		case c.EmitEvery != 0:
			return fmt.Errorf("experiments: EmitEvery (-emit-every) requires streaming (-stream)")
		case c.ArtifactPath != "":
			return fmt.Errorf("experiments: ArtifactPath (-artifact) requires streaming (-stream)")
		}
		return nil
	}
	if c.Health.Enabled() {
		return fmt.Errorf("experiments: streaming (-stream) is incompatible with Health (-health): the adaptive scheduler owns PoP liveness")
	}
	return nil
}

// Results bundles everything a run produced.
type Results struct {
	Cfg Config
	Sys *sim.System

	Campaign *cacheprobe.Campaign
	DNSLogs  *dnslogs.Result
	CDN      *cdn.Datasets
	APNIC    *apnic.Estimates
	RV       *routeviews.Table
	ASDB     *asdb.DB

	// Prefix-granularity dataset views (Table 1).
	PfxCacheProbe, PfxDNSLogs, PfxUnion, PfxMSClients, PfxMSResolvers *datasets.PrefixDataset
	// AS-granularity dataset views (Tables 3-4).
	ASCacheProbe, ASDNSLogs, ASUnion, ASAPNIC, ASMSClients, ASMSResolvers *datasets.ASDataset

	// Trace is the run's structured span log: one span per pipeline stage
	// (executed or restored, artifact size, fingerprint) plus the prober's
	// per-stage/per-PoP spans, all stamped with sim-clock timestamps. When
	// StateDir is set Run also writes it to StateDir/metrics/trace.jsonl.
	Trace *metrics.Trace
}

// Run executes the full evaluation as a staged pipeline. The three
// independent chains — the cache-probing campaign, the DITL trace
// generation + DNS-logs crawl, and the comparison-dataset collections
// (CDN, APNIC, ASdb) — run concurrently, and every persisted stage
// checkpoints into cfg.StateDir (when set) so an interrupted run resumes
// instead of restarting; see newChain for the campaign spine, batchRun
// for the graph and the determinism argument.
func Run(cfg Config) (*Results, error) {
	cfg, err := cfg.prepare(false)
	if err != nil {
		return nil, err
	}
	br := newBatchRun(cfg)
	if err := br.runner.Run(noCtx()); err != nil {
		return nil, err
	}
	br.writeTrace()
	res := &Results{
		Cfg:      cfg,
		Trace:    br.trace,
		Sys:      br.world.Out(),
		Campaign: br.last.Out().Camp,
		DNSLogs:  br.dnsLogs.Out(),
		CDN:      br.baselines.Out().CDN,
		APNIC:    br.baselines.Out().APNIC,
		ASDB:     br.baselines.Out().ASDB,
		RV:       br.world.Out().RV,
	}
	v := br.views.Out()
	res.PfxCacheProbe, res.PfxDNSLogs, res.PfxUnion = v.PfxCacheProbe, v.PfxDNSLogs, v.PfxUnion
	res.PfxMSClients, res.PfxMSResolvers = v.PfxMSClients, v.PfxMSResolvers
	res.ASCacheProbe, res.ASDNSLogs, res.ASUnion = v.ASCacheProbe, v.ASDNSLogs, v.ASUnion
	res.ASAPNIC, res.ASMSClients, res.ASMSResolvers = v.ASAPNIC, v.ASMSClients, v.ASMSResolvers
	return res, nil
}
