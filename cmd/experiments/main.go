// Command experiments regenerates every table and figure of the paper's
// evaluation and writes an EXPERIMENTS.md comparing paper-reported values
// with measured ones.
//
// Usage:
//
//	experiments -scale small -seed 2021 -out EXPERIMENTS.md
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"clientmap/internal/cliflags"
	"clientmap/internal/experiments"
	"clientmap/internal/metrics"
	"clientmap/internal/report"
	"clientmap/internal/serve"
	"clientmap/internal/statefs"
)

// writeOut writes one report payload where its flag points and says so.
func writeOut(path string, data []byte) {
	if err := cliflags.WriteOut(path, data); err != nil {
		log.Fatal(err)
	}
	if path != "" && path != "-" {
		log.Printf("wrote %s", path)
	}
}

// options are the command's flags: the campaign flags it shares with
// cmd/clientmap plus its own outputs.
type options struct {
	*cliflags.Shared
	out, csvDir, relJSON, serveOut string
	diskFaults                     string
}

func bind(flags *flag.FlagSet) *options {
	o := &options{Shared: cliflags.Bind(flags, 2021, "small")}
	flags.StringVar(&o.out, "out", "", "write a markdown report to this file")
	flags.IntVar(&o.CampaignHours, "campaign-hours", 120, "cache-probing campaign duration")
	flags.IntVar(&o.Passes, "passes", 9, "probing passes within the campaign")
	flags.IntVar(&o.TraceHours, "trace-hours", 48, "DITL trace duration")
	flags.StringVar(&o.csvDir, "csvdir", "", "export every table and figure as CSV into this directory")
	flags.StringVar(&o.diskFaults, "disk-faults", "", `inject deterministic disk faults into state I/O, e.g. "torn=probe-pass-1@1,enospc=@0.01,bitrot=@0.001,slow=.snap@5ms" (empty or "off" = honest disk)`)
	flags.StringVar(&o.relJSON, "reliability-json", "", `write the fault/retry ledger as JSON to this file ("-" = stdout)`)
	flags.StringVar(&o.serveOut, "serve-artifact", "", "export the serving artifact (serve.ClientMap snapshot) for clientmapd to this file; with -stream, the rolling artifact rewritten every emit hour")
	return o
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	o := bind(flag.CommandLine)
	flag.Parse()
	if err := o.Check(); err != nil {
		log.Fatal(err)
	}

	streaming := o.StreamHours > 0
	if streaming {
		if o.out != "" || o.csvDir != "" || o.relJSON != "" || o.DegradationJSON != "" {
			log.Fatal("-stream is incompatible with the batch-evaluation outputs (-out, -csvdir, -reliability-json, -degradation-json)")
		}
		o.ArtifactPath = o.serveOut
	}
	if o.StateDir != "" || o.DebugAddr != "" {
		o.Log = log.Printf
	}
	cfg, err := o.EngineConfig()
	if err == nil {
		// Run validates too; asking first fails before a port is bound.
		err = cfg.Validate(streaming)
	}
	if err != nil {
		log.Fatal(err)
	}
	if o.DebugAddr != "" {
		srv, err := metrics.ServeDebug(o.DebugAddr, cfg.Metrics)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("debug server listening on %s", srv.Addr())
	}
	dc, err := statefs.Parse(o.diskFaults)
	if err != nil {
		log.Fatal(err)
	}
	if dc.Enabled() {
		if cfg.StateDir == "" {
			log.Fatal("-disk-faults requires -state-dir (there is no state I/O to fault without one)")
		}
		dc.Seed = cfg.Seed
		cfg.FS = statefs.NewFaulty(dc, nil)
		log.Printf("injecting disk faults: %s", dc)
	}

	start := time.Now()
	if streaming {
		// The rolling artifact (if -serve-artifact is set) is written hour
		// by hour; what prints here is the coverage-lag report.
		log.Printf("streaming %d sim-hours (scale=%s seed=%d churn=%s)...",
			cfg.Hours, o.Scale, cfg.Seed, cfg.Churn.String())
		res, err := experiments.RunStream(cfg)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("done in %v: %d probes sent across %d hourly passes",
			time.Since(start), res.Campaign.ProbesSent, res.Cfg.Hours)
		fmt.Print(res.Report.Render())
		if cfg.ArtifactPath != "" && res.FinalMap != nil {
			st := serve.NewIndex(res.FinalMap, 0, res.FinalHash).Stats()
			log.Printf("rolling artifact %s (%d scopes, %d active /24s, %d ASes, payload %.12s)",
				cfg.ArtifactPath, st.Scopes, st.Active24s, st.ActiveASes, res.FinalHash)
		}
		writeOut(o.MetricsJSON, res.MetricsJSON())
		return
	}

	log.Printf("running full evaluation (scale=%s seed=%d)...", o.Scale, o.Seed)
	res, err := experiments.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("done in %v: %d ASes, %d announced /24s, %d probes sent",
		time.Since(start), len(res.Sys.World.ASes), len(res.Sys.World.Prefixes), res.Campaign.ProbesSent)

	fmt.Println(res.RenderAll())

	if o.out != "" {
		md := markdown(res, o.Scale, o.Seed, time.Since(start))
		if err := os.WriteFile(o.out, []byte(md), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", o.out)
	}
	if o.csvDir != "" {
		if err := writeCSVs(res, o.csvDir); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote CSV exports to %s", o.csvDir)
	}
	if o.relJSON != "" {
		data, err := res.Reliability().JSON()
		if err != nil {
			log.Fatal(err)
		}
		writeOut(o.relJSON, append(data, '\n'))
	}
	if o.DegradationJSON != "" {
		data, err := res.Degradation().JSON()
		if err != nil {
			log.Fatal(err)
		}
		writeOut(o.DegradationJSON, append(data, '\n'))
	}
	if o.serveOut != "" {
		cm := res.ClientMap()
		hash, err := serve.WriteFile(o.serveOut, cm)
		if err != nil {
			log.Fatal(err)
		}
		st := serve.NewIndex(cm, 0, hash).Stats()
		log.Printf("wrote %s (%d scopes, %d active /24s, %d ASes, artifact %.12s)",
			o.serveOut, st.Scopes, st.Active24s, st.ActiveASes, hash)
	}
	writeOut(o.MetricsJSON, res.MetricsJSON())
}

// paperNotes holds the paper's reported values per experiment for the
// side-by-side markdown.
var paperNotes = []struct{ id, paper, how string }{
	{"Table 1", "cache probing 9.7M /24s (74.7% in MS clients); DNS logs 692K (95.5%); union covers 75.1% of MS clients",
		"compare the same percentages; absolute counts scale with the world"},
	{"Table 2", "90% of hits match query scope exactly, 97% within 2, 99% within 4",
		"same fractions from the campaign's scope pairs"},
	{"Table 3", "66,804 ASes total; MS clients 97%; APNIC misses 64% of MS clients; union recovers 93.8% of APNIC",
		"same percentages over the synthetic AS population"},
	{"Table 4", "union ASes carry 98.8% of MS clients volume and 100% of MS resolvers; APNIC carries 92%/95.7%",
		"volume-weighted overlap grid"},
	{"Table 5", "google 336K prefixes (most), youtube 214K, facebook 165K, wikipedia 65K (coarse /16-18 scopes), MS CDN 137K",
		"per-domain ordering and uniqueness shares"},
	{"Figure 1", "active-prefix density across 22 probed PoPs, following population",
		"per-PoP hit counts plus per-country /24 expansion"},
	{"Figure 2", "service radii 478-3,273 km for Groningen/Dalles/Charleston; max 5,524 km (Zurich)",
		"hit-distance CDFs and fitted 90th-percentile radii"},
	{"Figure 3", "~100% of APNIC users covered in the US, 99% India, 98% China; South America notably worse",
		"per-country covered fraction; SA countries sit lower (lower Google DNS share + PoP gaps)"},
	{"Figure 4", "median active fraction per AS between 25% (lower) and 100% (upper); wide spread",
		"CDFs of per-AS lower/upper bound fractions"},
	{"Figure 5", "22 probed+verified / 5 unprobed+verified / 18 unprobed+unverified PoPs",
		"same classification from campaign + Microsoft resolvers"},
	{"Figure 6", "DNS logs and MS resolvers have similar relative-volume distributions; APNIC has fewer small ASes",
		"CDF quantiles of per-AS relative volume"},
	{"Figure 7", "datasets disagree by at most 1e-5 for 90% of ASes",
		"pairwise relative-volume difference quantiles (coarser at small scale)"},
}

func markdown(res *experiments.Results, scale string, seed uint64, took time.Duration) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# EXPERIMENTS — paper vs. measured\n\n")
	fmt.Fprintf(&sb, "Generated by `cmd/experiments` (scale=%s, seed=%d, campaign=%v, %d probes, runtime %v).\n\n",
		scale, seed, res.Cfg.CampaignDuration, res.Campaign.ProbesSent, took.Round(time.Second))
	sb.WriteString("The substrate is a seeded synthetic Internet (see DESIGN.md §2); absolute\n")
	sb.WriteString("counts scale with the world size, so comparisons are on percentages,\n")
	sb.WriteString("orderings and distribution shapes.\n\n")

	sb.WriteString("## Headline statistics\n\n")
	head := &report.Table{Header: []string{"Statistic", "Paper", "Measured"}}
	for _, c := range experiments.CompareHeadline(res.ComputeHeadline()) {
		head.AddRow(c.Name, c.Paper, c.Measured)
	}
	sb.WriteString(head.Markdown())
	sb.WriteString("\n## Experiment index\n\n")
	idx := &report.Table{Header: []string{"Experiment", "Paper result", "Reproduction"}}
	for _, n := range paperNotes {
		idx.AddRow(n.id, n.paper, n.how)
	}
	sb.WriteString(idx.Markdown())

	sb.WriteString("\n## Known deviations\n\n")
	sb.WriteString(`The synthetic substrate reproduces orderings and most percentages, with
these understood residuals:

- **Cache-probing upper-bound precision** (paper 74.7%) runs lower here:
  expanding hit scopes to /24s covers proportionally more unannounced and
  clientless space than in the real Internet, whose eyeball regions are
  denser than any tractable synthetic allocation.
- **Cache probing's AS coverage** runs above the paper's 55%: the
  synthetic micro-AS tail (the ~45% of networks with negligible users) is
  still slightly easier to catch via coarse Wikipedia-style scopes than
  its real counterpart.
- **APNIC's AS coverage** lands a few points under the paper's 35%; the
  ad-impression budget is a single scalar heuristic.
- **ECS ground-truth recall** (paper 91%) loses a few points to clients
  routed to the five cloud-unreachable PoPs and to thin prefixes that
  enter the one-day ground truth but never stay cached through a probing
  window.

Every mechanism behind these gaps is a tunable in ` + "`world.Params`" + ` and
` + "`traffic.Tunables`" + `; DESIGN.md §5 lists the corresponding ablations.

## Regression corpus

The headline statistics are pinned by a golden corpus
(` + "`internal/experiments/testdata/golden_headline.json`" + `, asserted by
` + "`TestGoldenHeadline`" + ` at ±0.1 pp): a change that moves any of the
numbers above fails CI until ` + "`make golden-update`" + ` regenerates the
corpus and the diff is reviewed. The campaign's instrumentation ledger
(` + "`-metrics-json`" + `) is byte-deterministic across worker counts and
kill/resume, so measured values here are exactly reproducible, not
merely statistically stable.

## Continuous measurement (streaming mode)

Beyond the batch evaluation above, ` + "`-stream N`" + ` runs the continuous
measurement mode for N simulated hours over a world that ` + "`-churn`" + `
evolves underneath it — prefix re-allocations, resolver-share drift,
diurnal shifts, PoP withdraw/announce windows, and a Chromium-probe
deprecation that starves the DNS-logs technique:

	go run ./cmd/experiments -scale tiny -seed 2021 -stream 24 \
	    -churn "realloc=3@5h,drift=0.15@9h,pop=fra@6h+5h,chromium=off@12h" \
	    -serve-artifact map.snap

Evidence decays on a TTL, an adaptive scheduler re-probes what flipped
or is about to decay out, and the rolling artifact re-exports every
emit hour for ` + "`clientmapd -reload`" + `. The end-of-run report prints the
coverage-lag table (sim-hours from each world event to the first
rolling map reflecting it) and quantifies the deprecation's coverage
loss. The golden scenario is pinned by
` + "`internal/experiments/testdata/golden_stream.json`" + ` (headline stats and
the full lag table, asserted by ` + "`TestGoldenStream`" + `); see DESIGN.md §15.

## Measured tables

`)
	for _, t := range []*report.Table{
		experiments.RenderMatrix("Table 1: /24-prefix overlap", res.Table1()),
		experiments.RenderTable2(res.Table2()),
		experiments.RenderMatrix("Table 3: AS overlap", res.Table3()),
		experiments.RenderVolumeMatrix("Table 4: volume-weighted AS overlap", res.Table4()),
		experiments.RenderTable5(res.Table5()),
		experiments.RenderTable5Overlap(res.Table5()),
		res.RenderFigure2(),
		res.RenderReliability(),
		res.RenderMetrics(),
	} {
		sb.WriteString(t.Markdown())
		sb.WriteString("\n")
	}

	sb.WriteString("## Measured figures\n\n")
	writeFigures(&sb, res)
	return sb.String()
}

func writeFigures(sb *strings.Builder, res *experiments.Results) {
	pops, countryActive := res.Figure1()
	f1 := &report.Table{Header: []string{"PoP", "Active prefixes", "Service radius (km)"}}
	for _, e := range pops {
		f1.AddRow(e.PoP, report.Count(e.Hits), fmt.Sprintf("%.0f", e.RadiusKm))
	}
	sb.WriteString("**Figure 1: active prefixes per probed PoP**\n\n")
	sb.WriteString(f1.Markdown())
	var countries []string
	for c := range countryActive {
		countries = append(countries, c)
	}
	sort.Slice(countries, func(i, j int) bool { return countryActive[countries[i]] > countryActive[countries[j]] })
	sb.WriteString("\nTop countries by detected active /24s: ")
	for i, c := range countries {
		if i >= 10 {
			break
		}
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(sb, "%s (%d)", c, countryActive[c])
	}
	sb.WriteString("\n\n")

	f3 := res.Figure3()
	sort.Slice(f3, func(i, j int) bool { return f3[i].Users > f3[j].Users })
	t3 := &report.Table{Header: []string{"Country", "APNIC users (world scale)", "Covered by cache probing"}}
	for i, c := range f3 {
		if i >= 15 {
			break
		}
		t3.AddRow(c.Country, fmt.Sprintf("%.0f", c.Users), fmt.Sprintf("%.0f%%", c.CoveredFrac*100))
	}
	sb.WriteString("**Figure 3: per-country APNIC-user coverage (15 largest countries)**\n\n")
	sb.WriteString(t3.Markdown())
	sb.WriteString("\n")

	_, lower, upper := res.Figure4()
	t4 := &report.Table{Header: []string{"Quantile", "Lower-bound active fraction", "Upper-bound active fraction"}}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		t4.AddRow(fmt.Sprintf("p%.0f", q*100),
			fmt.Sprintf("%.3f", lower.Quantile(q)),
			fmt.Sprintf("%.3f", upper.Quantile(q)))
	}
	sb.WriteString("**Figure 4: per-AS active-fraction bounds (CDF quantiles)**\n\n")
	sb.WriteString(t4.Markdown())
	sb.WriteString("\n")

	f5 := res.Figure5()
	counts := map[experiments.PoPClass]int{}
	for _, cls := range f5 {
		counts[cls]++
	}
	t5 := &report.Table{Header: []string{"Class", "Measured", "Paper"}}
	t5.AddRow(string(experiments.PoPProbedVerified), fmt.Sprintf("%d", counts[experiments.PoPProbedVerified]), "22")
	t5.AddRow(string(experiments.PoPUnprobedVerified), fmt.Sprintf("%d", counts[experiments.PoPUnprobedVerified]), "5")
	t5.AddRow(string(experiments.PoPUnprobedUnverified), fmt.Sprintf("%d", counts[experiments.PoPUnprobedUnverified]), "18")
	sb.WriteString("**Figure 5: PoP coverage classes**\n\n")
	sb.WriteString(t5.Markdown())
	sb.WriteString("\n")

	t6 := &report.Table{Header: []string{"Method", "p10", "p50", "p90", "p99"}}
	for name, cdf := range res.Figure6() {
		t6.AddRow(name,
			fmt.Sprintf("%.2e", cdf.Quantile(0.10)),
			fmt.Sprintf("%.2e", cdf.Quantile(0.50)),
			fmt.Sprintf("%.2e", cdf.Quantile(0.90)),
			fmt.Sprintf("%.2e", cdf.Quantile(0.99)))
	}
	sortRows(t6)
	sb.WriteString("**Figure 6: per-AS relative volume (CDF quantiles)**\n\n")
	sb.WriteString(t6.Markdown())
	sb.WriteString("\n")

	t7 := &report.Table{Header: []string{"Pair", "p5", "p50", "p95"}}
	for name, cdf := range res.Figure7() {
		t7.AddRow(name,
			fmt.Sprintf("%.2e", cdf.Quantile(0.05)),
			fmt.Sprintf("%.2e", cdf.Quantile(0.50)),
			fmt.Sprintf("%.2e", cdf.Quantile(0.95)))
	}
	sortRows(t7)
	sb.WriteString("**Figure 7: pairwise relative-volume differences (quantiles)**\n\n")
	sb.WriteString(t7.Markdown())
}

func sortRows(t *report.Table) {
	sort.Slice(t.Rows, func(i, j int) bool { return t.Rows[i][0] < t.Rows[j][0] })
}
