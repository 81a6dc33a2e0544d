// Package churn makes the generated world drift while a streaming
// campaign measures it. A Config — parsed from a -churn spec with the
// same grammar discipline as the faults and health specs — declares
// recurring prefix re-allocations, resolver-share drift and diurnal
// amplitude shifts, plus one-shot windows (a PoP withdrawn from anycast
// mid-stream) and events (the Chromium interception probes deprecated,
// starving the DNS-logs technique).
//
// Everything downstream is deterministic: Plan expands a Config into an
// hour-quantized event list that is a pure function of (seed, config,
// initial world), and Apply replays one event onto the world with every
// random redraw keyed by the event's own coordinates. A resumed stream
// that re-applies the plan therefore reconstructs the exact world a
// continuous stream mutated in place.
package churn

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"clientmap/internal/randx"
	"clientmap/internal/spec"
)

// Realloc is the recurring prefix re-allocation process: every Every of
// sim time, Count announced /24s move to a new AS and have their client
// population redrawn (possibly to zero — address space goes dark as
// often as it lights up).
type Realloc struct {
	Count int
	Every time.Duration
}

// Drift is the recurring resolver-share drift process: every Every, each
// AS's Google Public DNS share takes one multiplicative log-normal step
// of the given Sigma (clamped to the generator's share range).
type Drift struct {
	Sigma float64
	Every time.Duration
}

// Diurnal is the recurring diurnal-amplitude process: every Every, a
// deterministic sample of prefixes has its Diurnality scaled by a factor
// drawn uniformly from [1-Delta, 1+Delta] (clamped to [0, 1]).
type Diurnal struct {
	Delta float64
	Every time.Duration
}

// PoPWindow withdraws one anycast PoP from the probing fabric for a sim
// window: the streaming scheduler stops assigning probes to it at Start
// and resumes at Start+Duration.
type PoPWindow struct {
	PoP      string
	Start    time.Duration
	Duration time.Duration
}

// Config is the parsed churn model. The zero value means a static world.
type Config struct {
	// Seed keys every redraw the model makes. It is injected by the
	// harness (like faults.Config.Seed), not part of the spec grammar.
	Seed randx.Seed

	Realloc Realloc
	Drift   Drift
	Diurnal Diurnal
	PoPs    []PoPWindow

	// ChromiumOff schedules the "Chromium probes deprecated" event at
	// ChromiumOffAt: the world's Chromium share drops to zero and the
	// DNS-logs technique loses its signal.
	ChromiumOff   bool
	ChromiumOffAt time.Duration
}

// Enabled reports whether the config churns anything at all.
func (c Config) Enabled() bool {
	return c.Realloc.Count > 0 || c.Drift.Sigma > 0 || c.Diurnal.Delta > 0 ||
		len(c.PoPs) > 0 || c.ChromiumOff
}

// Parse parses a churn spec string. The grammar follows the faults and
// health specs: comma-separated key=value entries, where empty or "off"
// means no churn.
//
//	realloc=<count>@<every>    recurring prefix re-allocations
//	drift=<sigma>@<every>      recurring resolver-share drift
//	diurnal=<delta>@<every>    recurring diurnal amplitude shifts
//	pop=<name>@<start>+<dur>   withdraw a PoP for a sim window
//	chromium=off@<start>       deprecate the Chromium probes
//
// Example: "realloc=4@6h,drift=0.1@12h,pop=fra@3h+6h,chromium=off@12h".
func Parse(s string) (Config, error) {
	const grammar = spec.Grammar("churn")
	c := Config{}
	// every parses the "<value>@<every>" form of the recurring entries.
	every := func(kind, v string) (val string, d time.Duration, err error) {
		val, iv, err := grammar.At(kind, v, "<value>@<every>")
		if err == nil {
			d, err = grammar.Duration(kind+" interval", iv)
		}
		return val, d, err
	}
	// Unlike the other four grammars, churn skips empty entries
	// ("realloc=2@2h,", " , ") rather than rejecting them.
	entries := slices.DeleteFunc(strings.Split(s, ","), func(kv string) bool { return strings.TrimSpace(kv) == "" })
	err := grammar.Each(strings.Join(entries, ","), func(key, v string) (err error) {
		var val string
		switch key {
		case "realloc":
			if val, c.Realloc.Every, err = every(key, v); err == nil {
				c.Realloc.Count, err = grammar.Int("realloc count", val)
			}
		case "drift":
			if val, c.Drift.Every, err = every(key, v); err == nil {
				c.Drift.Sigma, err = grammar.Float("drift value", val)
			}
		case "diurnal":
			if val, c.Diurnal.Every, err = every(key, v); err == nil {
				c.Diurnal.Delta, err = grammar.Float("diurnal value", val)
			}
		case "pop":
			w := PoPWindow{}
			w.PoP, w.Start, w.Duration, err = grammar.Window("pop window", v, "<name>@<start>+<duration>")
			c.PoPs = append(c.PoPs, w)
		case "chromium":
			var at string
			if val, at, err = grammar.At(key, v, "off@<start>"); err == nil && val != "off" {
				err = grammar.Errorf("chromium %q: want off@<start>", v)
			}
			if err == nil {
				c.ChromiumOff = true
				c.ChromiumOffAt, err = grammar.Duration("chromium start", at)
			}
		default:
			err = grammar.Unknown(key, "realloc, drift, diurnal, pop or chromium")
		}
		return err
	})
	if err == nil {
		err = c.Validate()
	}
	if err != nil {
		return Config{}, err
	}
	// Normalize inactive entries ("realloc=0@5h" keeps no interval), so
	// Parse(c.String()) == c exactly — the fixpoint FuzzChurnParse pins.
	if c.Realloc.Count == 0 {
		c.Realloc = Realloc{}
	}
	if c.Drift.Sigma == 0 {
		c.Drift = Drift{}
	}
	if c.Diurnal.Delta == 0 {
		c.Diurnal = Diurnal{}
	}
	return c, nil
}

// Validate rejects out-of-range values with the same fast-fail contract
// as faults.Config.Validate.
func (c Config) Validate() error {
	if c.Realloc.Count < 0 {
		return fmt.Errorf("churn: realloc count must be >= 0, got %d", c.Realloc.Count)
	}
	if c.Realloc.Count > 0 && c.Realloc.Every <= 0 {
		return fmt.Errorf("churn: realloc interval must be positive, got %v", c.Realloc.Every)
	}
	if c.Drift.Sigma < 0 || c.Drift.Sigma != c.Drift.Sigma {
		return fmt.Errorf("churn: drift sigma must be a number >= 0, got %v", c.Drift.Sigma)
	}
	if c.Drift.Sigma > 0 && c.Drift.Every <= 0 {
		return fmt.Errorf("churn: drift interval must be positive, got %v", c.Drift.Every)
	}
	if c.Diurnal.Delta < 0 || c.Diurnal.Delta > 1 || c.Diurnal.Delta != c.Diurnal.Delta {
		return fmt.Errorf("churn: diurnal delta must be in [0, 1], got %v", c.Diurnal.Delta)
	}
	if c.Diurnal.Delta > 0 && c.Diurnal.Every <= 0 {
		return fmt.Errorf("churn: diurnal interval must be positive, got %v", c.Diurnal.Every)
	}
	for _, w := range c.PoPs {
		if w.PoP == "" {
			return fmt.Errorf("churn: pop window needs a PoP name")
		}
		if w.Start < 0 {
			return fmt.Errorf("churn: pop %s window start must be >= 0, got %v", w.PoP, w.Start)
		}
		if w.Duration <= 0 {
			return fmt.Errorf("churn: pop %s window duration must be positive, got %v", w.PoP, w.Duration)
		}
	}
	if c.ChromiumOff && c.ChromiumOffAt < 0 {
		return fmt.Errorf("churn: chromium deprecation start must be >= 0, got %v", c.ChromiumOffAt)
	}
	return nil
}

// String renders the canonical spec: Parse(c.String()) reproduces c
// (the fixpoint FuzzChurnParse pins), and an all-zero config renders as
// "off". Entries render in fixed key order; pop windows keep their
// declaration order, as overlapping windows are legal and order is part
// of the config's identity.
func (c Config) String() string {
	var parts []string
	if c.Realloc.Count > 0 {
		parts = append(parts, fmt.Sprintf("realloc=%d@%s", c.Realloc.Count, c.Realloc.Every))
	}
	if c.Drift.Sigma > 0 {
		parts = append(parts, fmt.Sprintf("drift=%s@%s", formatFloat(c.Drift.Sigma), c.Drift.Every))
	}
	if c.Diurnal.Delta > 0 {
		parts = append(parts, fmt.Sprintf("diurnal=%s@%s", formatFloat(c.Diurnal.Delta), c.Diurnal.Every))
	}
	for _, w := range c.PoPs {
		parts = append(parts, fmt.Sprintf("pop=%s@%s+%s", w.PoP, w.Start, w.Duration))
	}
	if c.ChromiumOff {
		parts = append(parts, fmt.Sprintf("chromium=off@%s", c.ChromiumOffAt))
	}
	if len(parts) == 0 {
		return "off"
	}
	return strings.Join(parts, ",")
}

// Fingerprint renders the churn model canonically for pipeline stage
// fingerprints, so checkpoints from one churn model never resume under
// another.
func (c Config) Fingerprint() string { return c.String() }

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// sortPoPs returns the pop windows sorted by (start, name, duration) —
// the order Plan emits their events in.
func (c Config) sortedPoPs() []PoPWindow {
	out := append([]PoPWindow(nil), c.PoPs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].PoP != out[j].PoP {
			return out[i].PoP < out[j].PoP
		}
		return out[i].Duration < out[j].Duration
	})
	return out
}
