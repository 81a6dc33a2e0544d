package experiments

import (
	"strings"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/metrics"
	"clientmap/internal/report"
)

// MetricsLedger assembles the run's deterministic metrics ledger: the
// campaign's checkpoint-folded instrumentation (Campaign.Metrics), the
// DNS-logs crawl totals under "dnslogs/…", and a "faults/…" mirror of the
// campaign's FaultStats. Every value comes from a checkpointed artifact,
// so the ledger — like the reliability table — is bit-identical across
// worker counts and kill/resume. Live registry values that depend on
// process lifetime (what ran versus what was restored) are deliberately
// absent; those belong to the trace.
func (r *Results) MetricsLedger() metrics.Ledger {
	led := campaignLedger(r.Campaign)
	if r.DNSLogs != nil {
		led["dnslogs/total_queries"] = int64(r.DNSLogs.TotalQueries)
		led["dnslogs/pattern_matches"] = int64(r.DNSLogs.PatternMatches)
		led["dnslogs/filtered_names"] = int64(r.DNSLogs.FilteredNames)
		led["dnslogs/resolvers"] = int64(len(r.DNSLogs.ResolverCounts))
		led["dnslogs/letters"] = int64(len(r.DNSLogs.LettersRead))
		led["dnslogs/open_retries"] = int64(r.DNSLogs.OpenRetries)
	}
	return led
}

// campaignLedger starts a ledger from what both modes export of a
// campaign: its checkpoint-folded instrumentation and the fault mirror.
func campaignLedger(camp *cacheprobe.Campaign) metrics.Ledger {
	led := metrics.Ledger{}
	if camp != nil {
		led.Merge(camp.Metrics)
		led["faults/injected_drops"] = camp.Faults.InjectedDrops
		led["faults/outage_drops"] = camp.Faults.OutageDrops
		led["faults/truncations"] = camp.Faults.Truncations
		led["faults/duplicates"] = camp.Faults.Duplicates
	}
	return led
}

// MetricsJSON renders the ledger as canonical (sorted-key, indented)
// JSON — the -metrics-json payload. Byte-identical for any worker count
// and across kill/resume, with or without injected faults.
func (r *Results) MetricsJSON() []byte {
	return r.MetricsLedger().JSON()
}

// RenderMetrics renders the ledger's headline counters as a report
// table next to the reliability table. Per-PoP, per-pass and histogram
// bucket keys stay in the JSON export; the table keeps the totals
// readable.
func (r *Results) RenderMetrics() *report.Table {
	led := r.MetricsLedger()
	t := &report.Table{
		Title:  "Campaign instrumentation (deterministic metrics ledger)",
		Header: []string{"Metric", "Value"},
	}
	for _, k := range led.Keys() {
		if strings.Contains(k, "/pop/") || strings.Contains(k, "/pass/") ||
			strings.Contains(k, "/le=") || strings.HasSuffix(k, "/sum") {
			continue
		}
		t.AddRow(k, report.Count(int(led[k])))
	}
	return t
}
