package stream

import (
	"fmt"
	"strings"
)

// Report is the stream's end-of-run summary: headline rolling-view
// stats, the coverage-lag table (sim-hours between each world event and
// the first rolling map that reflects it), and the quantified coverage
// loss of the Chromium-deprecation scenario.
type Report struct {
	Hours    int
	TTLHours int
	Churn    string

	// Final rolling-view state.
	FinalScopes int
	FinalDNS    int
	Emits       int

	// Ambient (not lag-tracked) event counts.
	DriftTicks   int
	DiurnalTicks int

	// Outcomes is the coverage-lag table, in plan order.
	Outcomes []EventOutcome

	// Chromium-deprecation quantification: the DNS channel's live /24
	// count at the event hour vs stream end, and the percentage lost.
	ChromiumOffHour int
	ChromiumBase    int
	ChromiumEnd     int
	ChromiumLossPct float64
}

// Report summarizes the finished stream.
func (s *State) Report() *Report {
	r := &Report{
		Hours:           s.Cfg.Hours,
		TTLHours:        DefaultTTLHours,
		Churn:           s.Cfg.Churn.String(),
		DriftTicks:      s.DriftTicks,
		DiurnalTicks:    s.DiurnalTicks,
		Outcomes:        s.Outcomes,
		ChromiumOffHour: s.ChromiumOffHour,
		ChromiumBase:    s.ChromiumBase,
	}
	if n := len(s.Views); n > 0 {
		last := s.Views[n-1]
		r.FinalScopes = last.ActiveScopes
		r.FinalDNS = last.DNSActive
		for _, v := range s.Views {
			if v.MapHash != "" {
				r.Emits++
			}
		}
	}
	if s.ChromiumOffHour >= 0 {
		r.ChromiumEnd = r.FinalDNS
		if r.ChromiumBase > 0 {
			r.ChromiumLossPct = 100 * float64(r.ChromiumBase-r.ChromiumEnd) / float64(r.ChromiumBase)
		}
	}
	return r
}

// Render formats the report as deterministic plain text (the determinism
// suite compares it byte-for-byte across worker counts and resumes).
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "streaming run: %d sim-hours, evidence TTL %dh, churn %s\n",
		r.Hours, r.TTLHours, r.Churn)
	fmt.Fprintf(&b, "final rolling view: %d active scopes, %d DNS /24s, %d artifact emits\n",
		r.FinalScopes, r.FinalDNS, r.Emits)
	fmt.Fprintf(&b, "ambient churn: %d drift ticks, %d diurnal ticks\n",
		r.DriftTicks, r.DiurnalTicks)
	if len(r.Outcomes) > 0 {
		b.WriteString("coverage lag (sim-hours from world event to map reflecting it):\n")
		b.WriteString("  hour  lag  event\n")
		for _, o := range r.Outcomes {
			lag := "pending"
			if o.ReflectedHour >= 0 {
				lag = fmt.Sprintf("%d", o.Lag())
			}
			fmt.Fprintf(&b, "  %4d  %3s  %s\n", o.Event.Hour, lag, o.Event.Describe())
		}
	}
	if r.ChromiumOffHour >= 0 {
		fmt.Fprintf(&b, "chromium deprecation at hour %d: DNS channel %d -> %d live /24s (%.1f%% coverage lost)\n",
			r.ChromiumOffHour, r.ChromiumBase, r.ChromiumEnd, r.ChromiumLossPct)
	}
	return b.String()
}
