package experiments

import (
	"encoding/json"
	"fmt"

	"clientmap/internal/faults"
	"clientmap/internal/metrics"
	"clientmap/internal/report"
)

// Reliability is the run's fault/retry ledger: what the substrate
// injected during the campaign and what the retry policy spent and
// recovered. Campaign counters are read from the checkpointed campaign's
// metrics ledger, so a resumed run reports the same numbers as an
// uninterrupted one.
type Reliability struct {
	CacheProbing       ProbeReliability `json:"cache_probing"`
	DNSLogsOpenRetries int              `json:"dns_logs_open_retries"`
}

// ProbeReliability counts injected transport faults and retry outcomes
// over a campaign. Every field is an order-independent sum, identical for
// any worker schedule.
type ProbeReliability struct {
	// InjectedDrops counts probes the fault layer dropped (loss model).
	InjectedDrops int64 `json:"injected_drops"`
	// OutageDrops counts probes dropped inside an outage window.
	OutageDrops int64 `json:"outage_drops"`
	// Truncations counts responses forced to TC=1.
	Truncations int64 `json:"truncations"`
	// Duplicates counts responses duplicated on the wire (absorbed).
	Duplicates int64 `json:"duplicates"`
	// BrownoutDrops counts probes dropped by a brownout's elevated loss.
	BrownoutDrops int64 `json:"brownout_drops"`
	// FlapDrops counts probes dropped while a flapping target was down.
	FlapDrops int64 `json:"flap_drops"`
	// RetriesSpent counts extra tries the retry policy issued.
	RetriesSpent int64 `json:"retries_spent"`
	// RetriesRecovered counts queries a retry rescued from failure.
	RetriesRecovered int64 `json:"retries_recovered"`
	// BudgetExhausted counts queries that were still failing when the
	// per-PoP retry budget (not the attempt bound) cut them off.
	BudgetExhausted int64 `json:"budget_exhausted"`
}

// probeReliability reads the campaign reliability counters out of a
// campaign's metrics ledger.
func probeReliability(led metrics.Ledger) ProbeReliability {
	return ProbeReliability{
		InjectedDrops:    led[faults.KeyDrops],
		OutageDrops:      led[faults.KeyOutageDrops],
		Truncations:      led[faults.KeyTruncations],
		Duplicates:       led[faults.KeyDuplicates],
		BrownoutDrops:    led[faults.KeyBrownoutDrops],
		FlapDrops:        led[faults.KeyFlapDrops],
		RetriesSpent:     led["cacheprobe/retry/spent"],
		RetriesRecovered: led["cacheprobe/retry/recovered"],
		BudgetExhausted:  led["cacheprobe/retry/exhausted"],
	}
}

// Reliability extracts the ledger from a run's results.
func (r *Results) Reliability() Reliability {
	rel := Reliability{}
	if r.Campaign != nil {
		rel.CacheProbing = probeReliability(r.Campaign.Metrics)
	}
	if r.DNSLogs != nil {
		rel.DNSLogsOpenRetries = r.DNSLogs.OpenRetries
	}
	return rel
}

// JSON renders the ledger as indented JSON for the cmds' report files.
func (rel Reliability) JSON() ([]byte, error) {
	return json.MarshalIndent(rel, "", "  ")
}

// RenderReliability renders the ledger as a report table. All zeros on a
// fault-free run without retries — the table still prints, so report
// consumers can rely on its presence.
func (r *Results) RenderReliability() *report.Table {
	rel := r.Reliability()
	t := &report.Table{
		Title:  "Campaign reliability (injected faults and retry policy)",
		Header: []string{"Counter", "Count"},
	}
	row := func(name string, v int64) { t.AddRow(name, fmt.Sprintf("%d", v)) }
	row("Injected drops (loss)", rel.CacheProbing.InjectedDrops)
	row("Injected drops (outage windows)", rel.CacheProbing.OutageDrops)
	row("Injected drops (brownouts)", rel.CacheProbing.BrownoutDrops)
	row("Injected drops (flapping targets)", rel.CacheProbing.FlapDrops)
	row("Forced truncations (TC=1)", rel.CacheProbing.Truncations)
	row("Duplicated responses", rel.CacheProbing.Duplicates)
	row("Retries spent", rel.CacheProbing.RetriesSpent)
	row("Queries recovered by retry", rel.CacheProbing.RetriesRecovered)
	row("Queries cut off by retry budget", rel.CacheProbing.BudgetExhausted)
	// Always 0 since the crawl stopped retrying opens; the row stays
	// because the golden reports pin it.
	row("DITL trace-open retries", int64(rel.DNSLogsOpenRetries))
	return t
}
