package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"clientmap/internal/report"
)

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

// The static prose of the generated report, one constant per section,
// each exactly as the committed EXPERIMENTS.md carries it; a prose edit
// goes here, or the next regeneration undoes it.
const (
	introProse = `The substrate is a seeded synthetic Internet (see DESIGN.md §2); absolute
counts scale with the world size, so comparisons are on percentages,
orderings and distribution shapes.
`

	deviationsProse = `## Known deviations

The synthetic substrate reproduces orderings and most percentages, with
these understood residuals:

- **Cache-probing upper-bound precision** (paper 74.7%) runs lower here:
  expanding hit scopes to /24s covers proportionally more unannounced and
  clientless space than in the real Internet, whose eyeball regions are
  denser than any tractable synthetic allocation.
- **Union recall** (paper 75.1%) runs higher here: cache probing ∪ DNS
  logs covers 70.7K of the 72.9K Microsoft-client /24s (97.0%, Table 1).
  Open; ROADMAP item 8.
- **Channel ratio** (paper 7.1%, 692K vs 9.7M /24s) runs lower here: DNS
  logs find 2080 /24s to cache probing's 154.7K (1.3%, Table 1). Open;
  ROADMAP item 8.
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
`

	corpusProse = `## Regression corpus

The headline statistics are pinned by a golden corpus
(` + "`internal/experiments/testdata/golden_headline.json`" + `, asserted by
` + "`TestGoldenHeadline`" + ` at ±0.1 pp): a change that moves any of the
numbers above fails CI until ` + "`make golden-update`" + ` regenerates the
corpus and the diff is reviewed. The campaign's instrumentation ledger
(` + "`-metrics-json`" + `) is byte-deterministic across worker counts and
kill/resume, so measured values here are exactly reproducible, not
merely statistically stable.
`

	streamingProse = `## Continuous measurement (streaming mode)

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
`
)

// Markdown renders the EXPERIMENTS.md report: the paper-vs-measured
// headline, the experiment index, the static prose and every table and
// figure. took is the wall-clock runtime its third line reports, the
// one line that differs between two runs of one configuration.
func (r *Results) Markdown(took time.Duration) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# EXPERIMENTS — paper vs. measured\n\n")
	fmt.Fprintf(&sb, "Generated by `cmd/experiments` (scale=%s, seed=%d, campaign=%v, %d probes, runtime %v).\n\n",
		r.Cfg.Scale.Name, uint64(r.Cfg.Seed), r.Cfg.CampaignDuration, r.Campaign.ProbesSent, took.Round(time.Second))
	sb.WriteString(introProse + "\n")

	sb.WriteString("## Headline statistics\n\n")
	head := &report.Table{Header: []string{"Statistic", "Paper", "Measured"}}
	for _, c := range CompareHeadline(r.ComputeHeadline()) {
		head.AddRow(c.Name, c.Paper, c.Measured)
	}
	sb.WriteString(head.Markdown())
	sb.WriteString("\n## Experiment index\n\n")
	idx := &report.Table{Header: []string{"Experiment", "Paper result", "Reproduction"}}
	for _, n := range paperNotes {
		idx.AddRow(n.id, n.paper, n.how)
	}
	sb.WriteString(idx.Markdown())
	for _, prose := range []string{deviationsProse, corpusProse, streamingProse} {
		sb.WriteString("\n" + prose)
	}
	sb.WriteString("\n## Measured tables\n\n")
	for _, t := range []*report.Table{
		RenderMatrix("Table 1: /24-prefix overlap", r.Table1()),
		RenderTable2(r.Table2()),
		RenderMatrix("Table 3: AS overlap", r.Table3()),
		RenderVolumeMatrix("Table 4: volume-weighted AS overlap", r.Table4()),
		RenderTable5(r.Table5()),
		RenderTable5Overlap(r.Table5()),
		r.RenderFigure2(),
		r.RenderReliability(),
		r.RenderMetrics(),
	} {
		sb.WriteString(t.Markdown())
		sb.WriteString("\n")
	}

	sb.WriteString("## Measured figures\n\n")
	writeFigures(&sb, r)
	return sb.String()
}

func writeFigures(sb *strings.Builder, r *Results) {
	pops, countryActive := r.Figure1()
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

	f3 := r.Figure3()
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

	_, lower, upper := r.Figure4()
	t4 := &report.Table{Header: []string{"Quantile", "Lower-bound active fraction", "Upper-bound active fraction"}}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		t4.AddRow(fmt.Sprintf("p%.0f", q*100),
			fmt.Sprintf("%.3f", lower.Quantile(q)),
			fmt.Sprintf("%.3f", upper.Quantile(q)))
	}
	sb.WriteString("**Figure 4: per-AS active-fraction bounds (CDF quantiles)**\n\n")
	sb.WriteString(t4.Markdown())
	sb.WriteString("\n")

	f5 := r.Figure5()
	counts := map[PoPClass]int{}
	for _, cls := range f5 {
		counts[cls]++
	}
	t5 := &report.Table{Header: []string{"Class", "Measured", "Paper"}}
	t5.AddRow(string(PoPProbedVerified), fmt.Sprintf("%d", counts[PoPProbedVerified]), "22")
	t5.AddRow(string(PoPUnprobedVerified), fmt.Sprintf("%d", counts[PoPUnprobedVerified]), "5")
	t5.AddRow(string(PoPUnprobedUnverified), fmt.Sprintf("%d", counts[PoPUnprobedUnverified]), "18")
	sb.WriteString("**Figure 5: PoP coverage classes**\n\n")
	sb.WriteString(t5.Markdown())
	sb.WriteString("\n")

	t6 := &report.Table{Header: []string{"Method", "p10", "p50", "p90", "p99"}}
	for name, cdf := range r.Figure6() {
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
	for name, cdf := range r.Figure7() {
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
