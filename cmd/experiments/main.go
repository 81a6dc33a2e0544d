// Command experiments runs the paper's evaluation through the public
// clientmap API. By default it prints every table and figure and can
// write an EXPERIMENTS.md comparing paper-reported values with measured
// ones; -prefix, -asn, -coverage and -headline print only the answers to
// those questions instead; -stream N runs the continuous measurement
// mode.
//
// Usage:
//
//	experiments -scale medium -seed 2021 -out EXPERIMENTS.md
//	experiments -scale small -prefix 1.3.7.0/24 -asn 150
//	experiments -scale tiny -stream 24 -churn "realloc=3@5h" -serve-artifact map.snap
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"clientmap"
)

// options are the command's flags: the run configuration they bind
// straight onto, plus the outputs and queries only a command line has.
type options struct {
	clientmap.Config
	out, csvDir, relJSON, degJSON, metricsJSON string
	prefix                                     string
	asn                                        uint
	coverage, headline                         bool
}

func bind(flags *flag.FlagSet) *options {
	o := &options{}
	flags.Uint64Var(&o.Seed, "seed", 2021, "simulation seed")
	flags.StringVar(&o.Scale, "scale", "small", "world scale: tiny|small|medium|large")
	flags.IntVar(&o.CampaignHours, "campaign-hours", 120, "cache-probing campaign duration")
	flags.IntVar(&o.Passes, "passes", 9, "probing passes within the campaign")
	flags.IntVar(&o.TraceHours, "trace-hours", 48, "DITL trace duration")
	flags.StringVar(&o.StateDir, "state-dir", "", "checkpoint pipeline stages into this directory")
	flags.BoolVar(&o.Resume, "resume", false, "reuse matching checkpoints in -state-dir, skipping completed stages")
	flags.IntVar(&o.Shards, "shards", 1, "split every probing pass (or stream hour) into this many scatter shards (results are identical for any count, and a -resume may change it)")
	flags.IntVar(&o.ShardIndex, "shard-index", -1, "run as shard runner N of -shards sharing -state-dir; -1 executes every shard in this process")
	flags.StringVar(&o.ShardDir, "shard-dir", "", "work-stealing claim directory of a distributed run (default <state-dir>/shards)")
	flags.StringVar(&o.Faults, "faults", "", `inject deterministic transport faults, e.g. "loss=0.02,jitter=50ms,outage=fra@24h+6h" (empty or "off" = reliable substrate)`)
	flags.StringVar(&o.Retries, "retries", "", `probe retry policy, e.g. "attempts=3,timeout=2s,backoff=100ms,budget=1000" (empty or "off" = single try)`)
	flags.StringVar(&o.Health, "health", "", `graceful-degradation policy: "on" for defaults, or e.g. "window=15m,error-rate=0.5,open-after=4,probation=45m,hedge-after=150ms" (empty or "off" = no breakers/hedging/failover)`)
	flags.StringVar(&o.DiskFaults, "disk-faults", "", `inject deterministic disk faults into state I/O, e.g. "torn=probe-pass-1@1,enospc=@0.01,bitrot=@0.001,slow=.snap@5ms" (empty or "off" = honest disk)`)
	flags.StringVar(&o.DebugAddr, "debug-addr", "", `serve /metrics, /debug/vars and /debug/pprof/ on this address (e.g. "localhost:6060") for the run's duration`)
	flags.IntVar(&o.StreamHours, "stream", 0, "continuous measurement mode: stream for this many simulated hours instead of running the batch evaluation")
	flags.StringVar(&o.Churn, "churn", "", `evolve the world while streaming, e.g. "realloc=3@5h,drift=0.15@9h,pop=fra@6h+5h,chromium=off@12h" (empty or "off" = static world)`)
	flags.IntVar(&o.EmitEvery, "emit-every", 0, "emit the rolling serving artifact every N simulated hours (0 = every hour; stream mode only)")
	flags.StringVar(&o.ArtifactPath, "serve-artifact", "", "export the serving artifact (serve.ClientMap snapshot) for clientmapd to this file; with -stream, the rolling artifact rewritten every emit hour")
	flags.StringVar(&o.out, "out", "", `write the markdown report to this file ("-" = stdout)`)
	flags.StringVar(&o.csvDir, "csvdir", "", "export every table and figure as CSV into this directory")
	flags.StringVar(&o.relJSON, "reliability-json", "", `write the fault/retry ledger as JSON to this file ("-" = stdout)`)
	flags.StringVar(&o.degJSON, "degradation-json", "", `write the degradation ledger (breakers, hedges, failover, coverage) as JSON to this file ("-" = stdout)`)
	flags.StringVar(&o.metricsJSON, "metrics-json", "", `write the deterministic metrics ledger as JSON to this file ("-" = stdout)`)
	flags.StringVar(&o.prefix, "prefix", "", "print only query answers: client activity for this CIDR prefix")
	flags.UintVar(&o.asn, "asn", 0, "print only query answers: client activity for this AS number")
	flags.BoolVar(&o.coverage, "coverage", false, "print only query answers: per-country user coverage")
	flags.BoolVar(&o.headline, "headline", false, "print only query answers: paper-vs-measured headline statistics")
	return o
}

// queried reports whether a query flag asks for answers instead of the
// full report.
func (o *options) queried() bool {
	return o.prefix != "" || o.asn != 0 || o.coverage || o.headline
}

// check rejects a command line before anything runs. The library's zero
// value must stay valid (Shards 0 = monolithic, ShardIndex ignored
// without sharding, as in a bare Config literal), but the flags default
// to 1 and -1, so on a command line those values are mistakes; and a
// stream has none of the batch evaluation's outputs. Every other rule is
// the library's Validate.
func (o *options) check() error {
	switch {
	case o.Shards < 1:
		return fmt.Errorf("-shards must be at least 1, got %d", o.Shards)
	case o.ShardIndex >= 0 && o.StateDir == "":
		return errors.New("-shard-index requires -state-dir: shard runners share checkpoints through it")
	case o.StreamHours > 0 && (o.out != "" || o.csvDir != "" || o.relJSON != "" || o.degJSON != "" || o.queried()):
		return errors.New("-stream is incompatible with the batch-evaluation outputs and queries (-out, -csvdir, -reliability-json, -degradation-json, -prefix, -asn, -coverage, -headline)")
	}
	return o.Validate()
}

// writeOut writes one output where its flag points: nowhere when path is
// empty, stdout when it is "-", else the named file, which it reports.
func writeOut(path string, data []byte) {
	var err error
	switch path {
	case "":
		return
	case "-":
		_, err = os.Stdout.Write(data)
	default:
		if err = os.WriteFile(path, data, 0o644); err == nil {
			log.Printf("wrote %s", path)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
}

// jsonLine ends a rendered JSON payload with a newline, or stops on its
// rendering error.
func jsonLine(data []byte, err error) []byte {
	if err != nil {
		log.Fatal(err)
	}
	return append(data, '\n')
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	o := bind(flag.CommandLine)
	flag.Parse()
	if err := o.check(); err != nil {
		log.Fatal(err)
	}
	if o.StateDir != "" || o.DebugAddr != "" {
		o.Log = log.Printf
	}

	start := time.Now()
	if o.StreamHours > 0 {
		// The rolling artifact (if -serve-artifact is set) is written hour
		// by hour; what prints here is the coverage-lag report.
		log.Printf("streaming %d sim-hours (scale=%s seed=%d churn=%s)...", o.StreamHours, o.Scale, o.Seed, o.Churn)
		run, err := clientmap.RunStream(o.Config)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("done in %v", time.Since(start))
		fmt.Print(run.ReportText())
		if o.ArtifactPath != "" {
			log.Printf("rolling artifact %s (payload %.12s)", o.ArtifactPath, run.FinalArtifactHash())
		}
		writeOut(o.metricsJSON, run.MetricsJSON())
		return
	}

	log.Printf("running full evaluation (scale=%s seed=%d)...", o.Scale, o.Seed)
	eval, err := clientmap.Run(o.Config)
	if err != nil {
		log.Fatal(err)
	}
	cp, dl := eval.ActivePrefixCount()
	log.Printf("done in %v: %d /24s via cache probing, %d via DNS logs, %d eyeball ASes",
		time.Since(start), cp, dl, len(eval.EyeballASNs()))

	if o.queried() {
		printQueries(o, eval)
	} else {
		fmt.Println(eval.Text())
	}
	if o.out != "" {
		writeOut(o.out, []byte(eval.Markdown(time.Since(start))))
	}
	if o.csvDir != "" {
		if err := eval.WriteCSV(o.csvDir); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote CSV exports to %s", o.csvDir)
	}
	if o.relJSON != "" {
		writeOut(o.relJSON, jsonLine(eval.ReliabilityJSON()))
	}
	if o.degJSON != "" {
		writeOut(o.degJSON, jsonLine(eval.DegradationJSON()))
	}
	if o.ArtifactPath != "" {
		log.Printf("wrote %s", o.ArtifactPath)
	}
	writeOut(o.metricsJSON, eval.MetricsJSON())
}

// printQueries answers the query flags, in a fixed order: headline,
// prefix, AS, country coverage.
func printQueries(o *options, eval *clientmap.Evaluation) {
	if o.headline {
		for _, s := range eval.Headline() {
			fmt.Printf("%-55s paper %-24s measured %s\n", s.Name, s.Paper, s.Measured)
		}
	}
	if o.prefix != "" {
		act, err := eval.PrefixActive(o.prefix)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("prefix %s: active=%v cacheProbing=%v dnsLogs=%v", o.prefix, act.Active(), act.CacheProbing, act.DNSLogs)
		if act.ASN != 0 {
			fmt.Printf(" origin=AS%d", act.ASN)
		}
		fmt.Println()
		trusted, reason, err := eval.GeoTrust(o.prefix)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("geolocation trust: %v (%s)\n", trusted, reason)
	}
	if o.asn != 0 {
		a := eval.ASActive(uint32(o.asn))
		fmt.Printf("AS%d: cacheProbing=%v dnsLogs=%v relVolume=%.3g apnicUsers=%.0f\n",
			a.ASN, a.CacheProbing, a.DNSLogs, a.RelativeVolume, a.APNICUsers)
	}
	if o.coverage {
		cov := eval.CountryCoverage()
		countries := make([]string, 0, len(cov))
		for c := range cov {
			countries = append(countries, c)
		}
		sort.Strings(countries)
		for _, c := range countries {
			fmt.Printf("%s %5.1f%%\n", c, cov[c]*100)
		}
	}
}
