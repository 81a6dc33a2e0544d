// Package clientmap identifies which IPv4 networks host Internet (web)
// clients using replicable techniques, reproducing "Towards Identifying
// Networks with Internet Clients Using Public Data" (IMC 2021).
//
// Two measurement techniques are implemented end-to-end:
//
//   - cache probing: non-recursive EDNS0 Client Subnet queries against
//     Google Public DNS's anycast caches, scanning the IPv4 space for
//     prefixes whose clients recently resolved popular domains; and
//   - DNS logs: crawling root-server (DITL) traces for Chromium's
//     DNS-interception probes, a per-recursive-resolver activity signal.
//
// Because the paper's raw inputs (Google's production caches, DNS-OARC
// traces, Microsoft server logs) are privileged, the package runs the
// techniques against a seeded synthetic Internet — see DESIGN.md — and
// validates them against the same baseline datasets the paper uses (APNIC
// user estimates and Microsoft-style CDN logs). Every table and figure of
// the paper's evaluation can be regenerated; see Evaluation.
//
// The quickstart:
//
//	eval, err := clientmap.Run(clientmap.Config{Seed: 1, Scale: clientmap.ScaleSmall})
//	if err != nil { ... }
//	fmt.Println(eval.Text())
//	active, _ := eval.PrefixActive("1.2.3.0/24")
package clientmap

import (
	"fmt"
	"sort"
	"time"

	"clientmap/internal/churn"
	"clientmap/internal/core/activity"
	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/experiments"
	"clientmap/internal/faults"
	"clientmap/internal/health"
	"clientmap/internal/metrics"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
	"clientmap/internal/world"
)

// Scale names for Config.Scale.
const (
	ScaleTiny   = "tiny"   // ~120 ASes; unit-test sized, runs in ~1 s
	ScaleSmall  = "small"  // ~700 ASes; seconds
	ScaleMedium = "medium" // ~3000 ASes; the default evaluation scale
	ScaleLarge  = "large"  // ~9000 ASes; minutes
)

// scaleByName resolves Config.Scale; "" means medium.
func scaleByName(name string) (world.Scale, error) {
	if name == "" {
		name = ScaleMedium
	}
	if s, ok := world.ScaleByName(name); ok {
		return s, nil
	}
	return world.Scale{}, fmt.Errorf("clientmap: unknown scale %q", name)
}

// Config parameterizes a run: the batch evaluation (Run) or the
// continuous measurement mode (RunStream). Everything but the fields
// marked batch-only or stream-only applies to both.
type Config struct {
	// Seed makes the whole run reproducible.
	Seed uint64
	// Scale is one of the Scale* constants; empty means medium.
	Scale string
	// CampaignHours is the cache-probing duration (batch only; 0 = the
	// paper's 120).
	CampaignHours int
	// Passes is how many times the probing assignment loops (batch only;
	// 0 = 9).
	Passes int
	// TraceHours is the DITL collection length (batch only; 0 = the
	// paper's 48).
	TraceHours int
	// StateDir is the pipeline checkpoint directory. When set, every
	// completed stage (the scope pre-scan, the calibration, each probing
	// pass, the DITL crawl, the baselines, the dataset views) persists
	// its artifact there; empty keeps the whole run in memory.
	StateDir string
	// Resume reuses checkpoints in StateDir whose fingerprints match
	// this configuration, skipping the stages that produced them — how
	// an interrupted campaign picks up where it was killed.
	Resume bool
	// Shards splits every probing pass or stream hour into this many
	// scatter shards (0 or 1 = monolithic). Results are byte-identical for
	// any shard count, and checkpoints do not depend on it: a campaign
	// may resume at a different shard count than it was killed at.
	Shards int
	// ShardIndex makes this process shard runner N of a fleet sharing
	// StateDir; meaningful only when Shards > 1, and requires StateDir.
	// -1 (what the commands' -shard-index defaults to) executes every
	// shard in this one process. Note the zero value is runner 0: set -1
	// explicitly when Shards > 1 and this process should run the whole
	// campaign alone.
	ShardIndex int
	// ShardDir is the work-stealing claim directory of a distributed
	// run; empty means StateDir/shards.
	ShardDir string
	// Faults injects deterministic transport faults into the campaign,
	// e.g. "loss=0.02,jitter=50ms,outage=fra@24h+6h". Empty (or "off")
	// keeps the substrate perfectly reliable. Rates must lie in [0,1]
	// and durations be non-negative; Run rejects anything else.
	Faults string
	// Retries is the probers' retry policy, e.g.
	// "attempts=3,timeout=2s,backoff=100ms,budget=1000". Empty (or
	// "off") means single-try probing, where a timeout counts as a miss.
	Retries string
	// Health is the graceful-degradation policy: "on" enables per-target
	// circuit breakers, hedged probes and vantage failover with the
	// default thresholds; a spec like
	// "window=15m,error-rate=0.5,open-after=4,probation=45m,hedge-after=150ms"
	// tunes them. Empty (or "off") disables the layer entirely. Batch
	// only: a stream's adaptive scheduler owns PoP liveness.
	Health string
	// StreamHours is the simulated stream length RunStream runs (0 = 24);
	// every simulated hour is its own resumable checkpoint. Run rejects a
	// Config that sets it, or any of the three fields below.
	StreamHours int
	// Churn is the world-evolution spec a stream runs over, e.g.
	// "realloc=3@5h,drift=0.15@9h,pop=fra@6h+5h,chromium=off@12h".
	// Empty (or "off") streams over a static world.
	Churn string
	// EmitEvery emits the stream's rolling artifact every N simulated
	// hours (0 = every hour).
	EmitEvery int
	// ArtifactPath, when set, receives the stream's rolling
	// serve.ClientMap on every emit hour (atomic replace, deduped by
	// payload hash) — the file clientmapd -reload watches.
	ArtifactPath string
	// Log receives stage progress lines (which stages ran, which were
	// restored); nil discards them.
	Log func(format string, args ...any)
	// DebugAddr, when non-empty (e.g. "localhost:6060"), serves live
	// observability endpoints for the duration of the run: /metrics (the
	// live instrumentation ledger as JSON), /debug/vars (expvar) and
	// /debug/pprof/ (profiling). The listener closes when the run returns.
	DebugAddr string
}

// Evaluation is a completed run: both techniques plus all baseline
// datasets over one synthetic Internet.
type Evaluation struct {
	res *experiments.Results
}

// EngineConfig translates the configuration into the internal one the
// campaign engine takes — the one place the spec strings are parsed. It
// opens nothing and starts nothing. It is exported for cmd/experiments,
// which adds engine-only knobs before running. The type it returns lives
// in an internal package, so it is not part of the stable API surface.
func (cfg Config) EngineConfig() (ecfg experiments.Config, err error) {
	scale, err := scaleByName(cfg.Scale)
	if err != nil {
		return ecfg, err
	}
	// Zero (or negative) durations and passes take the engine's defaults.
	ecfg = experiments.DefaultConfig(randx.Seed(cfg.Seed), scale)
	ecfg.CampaignDuration = time.Duration(cfg.CampaignHours) * time.Hour
	ecfg.Passes = cfg.Passes
	ecfg.TraceDuration = time.Duration(cfg.TraceHours) * time.Hour
	ecfg.StateDir = cfg.StateDir
	ecfg.Resume = cfg.Resume
	ecfg.Shards = cfg.Shards
	ecfg.ShardIndex = cfg.ShardIndex
	ecfg.ShardDir = cfg.ShardDir
	ecfg.Hours = cfg.StreamHours
	ecfg.EmitEvery = cfg.EmitEvery
	ecfg.ArtifactPath = cfg.ArtifactPath
	ecfg.Log = cfg.Log
	ecfg.Metrics = metrics.NewRegistry()
	if ecfg.Faults, err = faults.Parse(cfg.Faults); err != nil {
		return ecfg, fmt.Errorf("clientmap: Faults (-faults): %w", err)
	}
	if ecfg.Retry, err = cacheprobe.ParseRetry(cfg.Retries); err != nil {
		return ecfg, fmt.Errorf("clientmap: Retries (-retries): %w", err)
	}
	if ecfg.Health, err = health.Parse(cfg.Health); err != nil {
		return ecfg, fmt.Errorf("clientmap: Health (-health): %w", err)
	}
	if ecfg.Churn, err = churn.Parse(cfg.Churn); err != nil {
		return ecfg, fmt.Errorf("clientmap: Churn (-churn): %w", err)
	}
	return ecfg, nil
}

// run is what Run and RunStream share: translate, serve the run's live
// registry on DebugAddr (when set) for as long as the engine runs, run it.
func run[R any](cfg Config, engine func(experiments.Config) (R, error)) (res R, err error) {
	ecfg, err := cfg.EngineConfig()
	if err != nil {
		return res, err
	}
	if cfg.DebugAddr != "" {
		srv, err := metrics.ServeDebug(cfg.DebugAddr, ecfg.Metrics)
		if err != nil {
			return res, fmt.Errorf("clientmap: debug server: %w", err)
		}
		defer srv.Close()
		if cfg.Log != nil {
			cfg.Log("debug server listening on %s", srv.Addr())
		}
	}
	return engine(ecfg)
}

// Run executes a full evaluation.
func Run(cfg Config) (*Evaluation, error) {
	res, err := run(cfg, experiments.Run)
	if err != nil {
		return nil, err
	}
	return &Evaluation{res: res}, nil
}

// Text renders the complete evaluation (every table and figure) as text.
func (e *Evaluation) Text() string { return e.res.RenderAll() }

// Metrics returns the run's deterministic instrumentation ledger: probe,
// transport and cache-model counters plus latency histogram buckets,
// keyed "subsystem/…". Values come from checkpointed artifacts, so they
// are identical for any worker count and across kill/resume.
func (e *Evaluation) Metrics() map[string]int64 { return e.res.MetricsLedger() }

// MetricsJSON renders the ledger canonically (sorted keys, indented,
// trailing newline) — the -metrics-json payload, byte-identical for
// equal configurations.
func (e *Evaluation) MetricsJSON() []byte { return e.res.MetricsJSON() }

// DegradationJSON renders the run's graceful-degradation ledger —
// breaker time per target, hedge outcomes, failover volume and the
// per-pass coverage accounting; "enabled" is false when Config.Health
// was off — as indented JSON: the -degradation-json payload,
// byte-identical for equal configurations.
func (e *Evaluation) DegradationJSON() ([]byte, error) { return e.res.Degradation().JSON() }

// Stat is one paper-vs-measured headline comparison.
type Stat struct {
	Name     string
	Paper    string
	Measured string
}

// Headline returns the paper-vs-measured headline statistics.
func (e *Evaluation) Headline() []Stat {
	var out []Stat
	for _, c := range experiments.CompareHeadline(e.res.ComputeHeadline()) {
		out = append(out, Stat{Name: c.Name, Paper: c.Paper, Measured: c.Measured})
	}
	return out
}

// PrefixActivity describes what the techniques know about one /24.
type PrefixActivity struct {
	// CacheProbing is true if the prefix lies inside an ECS scope with a
	// cache hit (the technique's upper bound).
	CacheProbing bool
	// DNSLogs is true if a detected recursive resolver lives in the /24.
	DNSLogs bool
	// ASN is the prefix's origin AS, if announced.
	ASN uint32
}

// Active reports whether either technique saw client activity.
func (p PrefixActivity) Active() bool { return p.CacheProbing || p.DNSLogs }

// PrefixActive looks up a /24 (or broader prefix: any covered /24 counts)
// in the measurement results — the question downstream users ask: "does
// this prefix contain clients?"
func (e *Evaluation) PrefixActive(cidr string) (PrefixActivity, error) {
	pfx, err := netx.ParsePrefix(cidr)
	if err != nil {
		return PrefixActivity{}, err
	}
	var out PrefixActivity
	pfx.Slash24s(func(p netx.Slash24) bool {
		if e.res.PfxCacheProbe.Set.Contains(p) {
			out.CacheProbing = true
		}
		if e.res.PfxDNSLogs.Set.Contains(p) {
			out.DNSLogs = true
		}
		return !(out.CacheProbing && out.DNSLogs)
	})
	if asn, ok := e.res.RV.ASNOf(pfx.Addr()); ok {
		out.ASN = asn
	}
	return out, nil
}

// ActivePrefixCount returns the number of /24s each technique flags.
func (e *Evaluation) ActivePrefixCount() (cacheProbing, dnsLogs int) {
	return e.res.PfxCacheProbe.Len(), e.res.PfxDNSLogs.Len()
}

// ASActivity describes what the techniques know about one AS.
type ASActivity struct {
	ASN uint32
	// CacheProbing/DNSLogs report detection by each technique.
	CacheProbing, DNSLogs bool
	// RelativeVolume is the AS's share of the DNS-logs activity signal
	// (zero when not detected by DNS logs).
	RelativeVolume float64
	// APNICUsers is APNIC's user estimate (zero when absent — most small
	// ASes are).
	APNICUsers float64
}

// ASActive looks up an AS in the results.
func (e *Evaluation) ASActive(asn uint32) ASActivity {
	out := ASActivity{
		ASN:          asn,
		CacheProbing: e.res.ASCacheProbe.Has(asn),
		DNSLogs:      e.res.ASDNSLogs.Has(asn),
	}
	out.RelativeVolume = e.res.ASDNSLogs.RelativeVolumes()[asn]
	out.APNICUsers = e.res.APNIC.Users[asn]
	return out
}

// EyeballASNs returns the ASes detected as hosting clients by either
// technique, ascending.
func (e *Evaluation) EyeballASNs() []uint32 {
	return e.res.ASUnion.ASNs()
}

// CountryCoverage returns, per country code, the fraction of its
// APNIC-estimated users inside ASes where cache probing found activity
// (Figure 3's data).
func (e *Evaluation) CountryCoverage() map[string]float64 {
	out := make(map[string]float64)
	for _, c := range e.res.Figure3() {
		out[c.Country] = c.CoveredFrac
	}
	return out
}

// GeoTrust reports how trustworthy the geolocation database entry for a
// /24 is likely to be, following the paper's motivating use case:
// geolocation databases are accurate for end-user networks and unreliable
// for infrastructure, so prefixes with detected client activity warrant
// more trust.
func (e *Evaluation) GeoTrust(cidr string) (trusted bool, reason string, err error) {
	act, err := e.PrefixActive(cidr)
	if err != nil {
		return false, "", err
	}
	switch {
	case act.CacheProbing && act.DNSLogs:
		return true, "client activity confirmed by both techniques", nil
	case act.CacheProbing:
		return true, "web clients detected by cache probing", nil
	case act.DNSLogs:
		return false, "hosts a recursive resolver; may be infrastructure space", nil
	default:
		return false, "no client activity detected; likely infrastructure or unused", nil
	}
}

// ActivityEstimate is one entry of the relative activity ranking — the
// paper's §6 roadmap from presence lists to activity levels.
type ActivityEstimate struct {
	// Prefix in CIDR notation (the hit scope granularity).
	Prefix string
	// ASN and Country locate the ⟨region, AS⟩ group the estimate joined on.
	ASN     uint32
	Country string
	// Activity is the relative estimate (comparable within one ranking).
	Activity float64
	// Warmth is the fraction of probing passes that found the prefix
	// cached.
	Warmth float64
	// HumanScore is the diurnal-pattern signal: values above ~1 mean the
	// prefix's cache hits cluster in local busy hours (human-like).
	HumanScore float64
}

// ActivityRanking combines both techniques into a relative activity
// ranking across active prefixes, implementing the paper's §6 proposal:
// DNS-logs resolver volume is joined to cache-probing prefixes at
// ⟨country, AS⟩ granularity and spread by cache warmth. At most n entries
// are returned (0 means all), descending by estimated activity.
func (e *Evaluation) ActivityRanking(n int) []ActivityEstimate {
	est := activity.NewEstimator(e.res.Campaign, e.res.DNSLogs, e.res.RV, e.res.Sys.World.GeoDB())
	ranking := est.Ranking()
	human := est.HumanLikelihood()
	if n <= 0 || n > len(ranking) {
		n = len(ranking)
	}
	out := make([]ActivityEstimate, 0, n)
	for _, r := range ranking[:n] {
		out = append(out, ActivityEstimate{
			Prefix:     r.Prefix.String(),
			ASN:        r.ASN,
			Country:    r.Country,
			Activity:   r.Activity,
			Warmth:     r.Warmth,
			HumanScore: human[r.Prefix],
		})
	}
	return out
}

// Results exposes the underlying experiment results for advanced use (the
// cmd tools and benchmarks); the type lives in an internal package and is
// not part of the stable API surface.
func (e *Evaluation) Results() *experiments.Results { return e.res }

// Scales lists the valid scale names.
func Scales() []string {
	s := []string{ScaleTiny, ScaleSmall, ScaleMedium, ScaleLarge}
	sort.Strings(s)
	return s
}
