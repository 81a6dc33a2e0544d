package statefs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"clientmap/internal/randx"
	"clientmap/internal/spec"
)

// Config describes the disk-fault model Faulty injects. The zero value
// injects nothing. It follows the same grammar discipline as
// faults.Config: a -disk-faults spec parses into it, String renders the
// canonical spec back (Parse∘String is the identity on parsed configs),
// and the canonical spec doubles as the fingerprint.
type Config struct {
	// Seed keys every fault decision. Harnesses overwrite it with the
	// run seed so one seed reproduces world, probes, network faults and
	// disk faults.
	Seed randx.Seed
	// Torn rules tear matching atomic writes: the destination file ends
	// up holding a hash-chosen prefix of the data and the write reports
	// failure — the classic non-atomic-rename crash shape.
	Torn []Rule
	// ENOSPC rules fail matching writes partway through the temp file:
	// the destination is untouched, a partial *.tmp-* file is left
	// behind, and the write reports failure.
	ENOSPC []Rule
	// RenameFail rules fail matching writes at the rename step: the temp
	// file holds the complete data but never becomes the destination.
	RenameFail []Rule
	// Bitrot rules flip one hash-chosen bit in matching writes and
	// report success — the silent corruption only a checksum catches.
	Bitrot []Rule
	// Slow rules delay matching reads and writes — the degraded-disk
	// shape that turns checkpointing into the campaign's straggler.
	Slow []SlowRule
}

// Rule scopes one fault kind: paths containing Match (every path when
// Match is empty) are hit with probability Rate.
type Rule struct {
	Match string
	Rate  float64
}

// SlowRule delays operations on paths containing Match by Delay.
type SlowRule struct {
	Match string
	Delay time.Duration
}

// Parse builds a Config from a -disk-faults spec such as
//
//	torn=probe-pass-1@1,bitrot=@0.01,slow=.snap@5ms
//
// Keys: torn, enospc, rename-fail, bitrot — each "<match>@<rate>" with
// match a path substring (empty matches every path) and rate in [0,1] —
// and slow, "<match>@<duration>". A key may repeat to scope different
// rates to different paths. Empty and "off" mean no faults. The seed is
// left zero — harnesses key it to the run seed.
func Parse(s string) (Config, error) {
	const grammar = spec.Grammar("statefs")
	var c Config
	err := grammar.Each(s, func(k, v string) error {
		var rules *[]Rule
		switch k {
		case "torn":
			rules = &c.Torn
		case "enospc":
			rules = &c.ENOSPC
		case "rename-fail":
			rules = &c.RenameFail
		case "bitrot":
			rules = &c.Bitrot
		case "slow":
			match, delay, err := grammar.At(k, v, "<match>@<duration>")
			if err != nil {
				return err
			}
			d, err := grammar.Duration("slow delay", delay)
			c.Slow = append(c.Slow, SlowRule{Match: match, Delay: d})
			return err
		default:
			return grammar.Unknown(k, "torn, enospc, rename-fail, bitrot, slow")
		}
		match, rate, err := grammar.At(k, v, "<match>@<rate>")
		if err != nil {
			return err
		}
		r, err := grammar.Float(k+" rate", rate)
		*rules = append(*rules, Rule{Match: match, Rate: r})
		return err
	})
	if err == nil {
		err = c.Validate()
	}
	if err != nil {
		return Config{}, err
	}
	return c, nil
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return len(c.Torn) > 0 || len(c.ENOSPC) > 0 || len(c.RenameFail) > 0 ||
		len(c.Bitrot) > 0 || len(c.Slow) > 0
}

// badRate rejects rates outside [0,1] — including NaN, which compares
// false against both bounds and would otherwise slip through and poison
// every downstream hash comparison.
func badRate(v float64) bool {
	return math.IsNaN(v) || v < 0 || v > 1
}

// Validate checks every rule: rates in [0,1] (NaN rejected),
// non-negative delays.
func (c Config) Validate() error {
	for _, rs := range []struct {
		kind  string
		rules []Rule
	}{{"torn", c.Torn}, {"enospc", c.ENOSPC}, {"rename-fail", c.RenameFail}, {"bitrot", c.Bitrot}} {
		for _, r := range rs.rules {
			if badRate(r.Rate) {
				return fmt.Errorf("statefs: %s %q rate %v outside [0,1]", rs.kind, r.Match, r.Rate)
			}
		}
	}
	for _, s := range c.Slow {
		if s.Delay < 0 {
			return fmt.Errorf("statefs: slow %q has negative delay %v", s.Match, s.Delay)
		}
	}
	return nil
}

// String renders the config in the canonical -disk-faults spec grammar,
// so for any parseable config Parse(c.String()) reproduces c (with
// rules in sorted order). The seed is deliberately absent — harnesses
// key it to the run seed.
func (c Config) String() string {
	if !c.Enabled() {
		return "off"
	}
	var parts []string
	for _, rs := range []struct {
		kind  string
		rules []Rule
	}{{"torn", c.Torn}, {"enospc", c.ENOSPC}, {"rename-fail", c.RenameFail}, {"bitrot", c.Bitrot}} {
		rules := append([]Rule(nil), rs.rules...)
		sort.Slice(rules, func(i, j int) bool {
			if rules[i].Match != rules[j].Match {
				return rules[i].Match < rules[j].Match
			}
			return rules[i].Rate < rules[j].Rate
		})
		for _, r := range rules {
			parts = append(parts, fmt.Sprintf("%s=%s@%g", rs.kind, r.Match, r.Rate))
		}
	}
	slows := append([]SlowRule(nil), c.Slow...)
	sort.Slice(slows, func(i, j int) bool {
		if slows[i].Match != slows[j].Match {
			return slows[i].Match < slows[j].Match
		}
		return slows[i].Delay < slows[j].Delay
	})
	for _, s := range slows {
		parts = append(parts, fmt.Sprintf("slow=%s@%s", s.Match, s.Delay))
	}
	return strings.Join(parts, ",")
}

// Fingerprint renders the disk-fault model canonically for pipeline
// stage fingerprints. Identical to String — the canonical spec is the
// fingerprint.
func (c Config) Fingerprint() string { return c.String() }
