package experiments

import (
	"encoding/json"
	"fmt"
	"sort"

	"clientmap/internal/clockx"
	"clientmap/internal/health"
	"clientmap/internal/report"
)

// TargetDegradation is one transport target's breaker history over the
// campaign window: how long it spent in each state, summed from the
// checkpointed transition timeline.
type TargetDegradation struct {
	Target      string `json:"target"`
	ClosedSec   int64  `json:"closed_sec"`
	OpenSec     int64  `json:"open_sec"`
	HalfOpenSec int64  `json:"half_open_sec"`
}

// Degradation is the run's graceful-degradation ledger: breaker time per
// target, hedge outcomes, failover volume, and the per-pass coverage
// accounting with the campaign-level coverage-loss estimate. Everything
// comes from the checkpointed Campaign artifact (hedge counts from its
// metrics ledger, the rest from its health ledger), so a resumed run
// reports the same numbers as an uninterrupted one.
type Degradation struct {
	Enabled bool `json:"enabled"`
	// Targets lists only targets that transitioned at least once; a
	// target absent here was closed for the whole campaign.
	Targets     []TargetDegradation `json:"targets,omitempty"`
	Transitions int                 `json:"transitions"`

	HedgesFired     int64   `json:"hedges_fired"`
	HedgesWon       int64   `json:"hedges_won"`
	HedgeWinRatePct float64 `json:"hedge_win_rate_pct"`

	// FailedOver counts task slots re-routed away from each PoP.
	FailedOver map[string]int64 `json:"failed_over,omitempty"`
	// Coverage is the per-pass routing ledger.
	Coverage []health.PassCoverage `json:"coverage,omitempty"`
	// EstimatedLossPP is the campaign-level coverage loss in percentage
	// points: the share of task slots never probed in any pass.
	EstimatedLossPP float64 `json:"estimated_loss_pp"`
}

// Degradation extracts the ledger from a run's results. The breaker state
// durations are summed over the campaign window (the simulation epoch
// through the configured campaign duration).
func (r *Results) Degradation() Degradation {
	d := Degradation{Enabled: r.Cfg.Health.Enabled()}
	if !d.Enabled || r.Campaign == nil {
		return d
	}
	l := &r.Campaign.Health
	from := clockx.Epoch
	to := from.Add(r.Cfg.CampaignDuration)
	durs := l.StateDurations(from, to)
	targets := make([]string, 0, len(durs))
	for target := range durs {
		targets = append(targets, target)
	}
	sort.Strings(targets)
	for _, target := range targets {
		ds := durs[target]
		d.Targets = append(d.Targets, TargetDegradation{
			Target:      target,
			ClosedSec:   int64(ds[health.Closed].Seconds()),
			OpenSec:     int64(ds[health.Open].Seconds()),
			HalfOpenSec: int64(ds[health.HalfOpen].Seconds()),
		})
	}
	d.Transitions = len(l.Transitions)
	d.HedgesFired = r.Campaign.Metrics["health/hedge/fired"]
	d.HedgesWon = r.Campaign.Metrics["health/hedge/won"]
	if d.HedgesFired > 0 {
		d.HedgeWinRatePct = 100 * float64(d.HedgesWon) / float64(d.HedgesFired)
	}
	d.FailedOver = l.FailedOver
	d.Coverage = l.Coverage
	d.EstimatedLossPP = l.EstimatedLossPP()
	return d
}

// JSON renders the ledger as indented JSON for the cmds' report files.
func (d Degradation) JSON() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// RenderDegradation renders the ledger as a report table. When the layer
// is off the table states so in one row — report consumers can rely on
// its presence either way.
func (r *Results) RenderDegradation() *report.Table {
	d := r.Degradation()
	t := &report.Table{
		Title:  "Graceful degradation (breakers, hedges, failover)",
		Header: []string{"Item", "Value"},
	}
	if !d.Enabled {
		t.AddRow("Degradation layer", "off")
		return t
	}
	for _, tg := range d.Targets {
		t.AddRow("Breaker "+tg.Target+" (closed/open/half-open)",
			fmt.Sprintf("%ds / %ds / %ds", tg.ClosedSec, tg.OpenSec, tg.HalfOpenSec))
	}
	t.AddRow("Breaker transitions", fmt.Sprintf("%d", d.Transitions))
	t.AddRow("Hedges fired / won", fmt.Sprintf("%d / %d (%.1f%%)", d.HedgesFired, d.HedgesWon, d.HedgeWinRatePct))
	var failedOver int64
	for _, n := range d.FailedOver {
		failedOver += n
	}
	t.AddRow("Task slots failed over", fmt.Sprintf("%d", failedOver))
	var lost int64
	for _, c := range d.Coverage {
		lost += c.Lost
	}
	t.AddRow("Task slots lost (all passes)", fmt.Sprintf("%d", lost))
	t.AddRow("Estimated coverage loss", fmt.Sprintf("%.2f pp", d.EstimatedLossPP))
	return t
}
