// Package health is the deterministic degradation layer for probing
// campaigns: per-target circuit breakers, a hedging policy and a
// failover planner, built so that every decision is bit-identical for
// any worker count and across checkpoint/resume.
//
// The determinism discipline mirrors the fault injector's. Outcome
// observations accumulate as order-independent per-(target, window)
// sums; breaker state transitions are computed only at sequential points
// (stage and pass boundaries) by replaying those sums as a pure function
// of the config — never incrementally from a sample stream, whose
// ordering would depend on the worker schedule. Between two replays the
// visible state timeline is frozen, so concurrent workers all read the
// same states. Probation lengths carry hash-derived jitter keyed by
// (seed, target, reopen count), so a fleet of breakers does not
// re-admit traffic in lockstep.
package health

import (
	"fmt"
	"math"
	"strings"
	"time"

	"clientmap/internal/randx"
	"clientmap/internal/spec"
)

// State is a circuit breaker state.
type State uint8

const (
	// Closed admits traffic: the target is believed healthy.
	Closed State = iota
	// Open rejects traffic: the target tripped the failure thresholds.
	Open
	// HalfOpen admits a trial fraction of traffic after probation.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Config describes the degradation layer. The zero value disables it.
type Config struct {
	// On enables the layer; all other knobs are ignored when false.
	On bool
	// Seed keys probation jitter, trial admission and hedge tiebreaks.
	// Harnesses overwrite it with the run seed.
	Seed randx.Seed
	// Window is the outcome-accounting window. Breaker decisions are
	// made from per-window OK/failure sums, evaluated at window ends.
	Window time.Duration
	// ErrorRate trips the breaker when a window with at least
	// MinSamples outcomes has a failure fraction ≥ ErrorRate.
	ErrorRate float64
	// MinSamples is the minimum window population for the ErrorRate
	// rule, so a single unlucky probe cannot open a breaker.
	MinSamples int
	// OpenAfter trips the breaker on an all-failure window with at
	// least OpenAfter failures — the deterministic reading of
	// "consecutive failures": per-window sums are order-independent, so
	// a run of failures is only observable as a window with no
	// successes at all.
	OpenAfter int
	// Probation is the base open → half-open delay.
	Probation time.Duration
	// ProbationJitter is the fraction of Probation added as
	// hash-derived jitter, keyed by (seed, target, reopen count).
	ProbationJitter float64
	// Trial is the fraction of a half-open target's tasks admitted as
	// trials; the rest fail over as if the breaker were open.
	Trial float64
	// HedgeAfter is the injected-latency threshold above which a try is
	// hedged with a secondary attempt; 0 disables hedging.
	HedgeAfter time.Duration
}

// Default is the stock degradation policy enabled by the "-health on"
// spec: 15m windows matching the brownout severity window, a majority
// error rate over at least 8 samples, 45m probation with up to 50%
// jitter, 20% half-open trials and a 150ms hedge threshold.
func Default() Config {
	return Config{
		On:              true,
		Window:          15 * time.Minute,
		ErrorRate:       0.5,
		MinSamples:      8,
		OpenAfter:       4,
		Probation:       45 * time.Minute,
		ProbationJitter: 0.5,
		Trial:           0.2,
		HedgeAfter:      150 * time.Millisecond,
	}
}

// Enabled reports whether the degradation layer is on.
func (c Config) Enabled() bool { return c.On }

// Hedging reports whether the hedging policy is active.
func (c Config) Hedging() bool { return c.On && c.HedgeAfter > 0 }

// Validate checks every knob's range.
func (c Config) Validate() error {
	if !c.On {
		return nil
	}
	if c.Window <= 0 {
		return fmt.Errorf("health: non-positive window %v", c.Window)
	}
	if math.IsNaN(c.ErrorRate) || c.ErrorRate <= 0 || c.ErrorRate > 1 {
		return fmt.Errorf("health: error rate %v outside (0,1]", c.ErrorRate)
	}
	if c.MinSamples < 1 {
		return fmt.Errorf("health: min samples %d below 1", c.MinSamples)
	}
	if c.OpenAfter < 1 {
		return fmt.Errorf("health: open-after threshold %d below 1", c.OpenAfter)
	}
	if c.Probation < 0 {
		return fmt.Errorf("health: negative probation %v", c.Probation)
	}
	if math.IsNaN(c.ProbationJitter) || c.ProbationJitter < 0 || c.ProbationJitter > 1 {
		return fmt.Errorf("health: probation jitter %v outside [0,1]", c.ProbationJitter)
	}
	if math.IsNaN(c.Trial) || c.Trial < 0 || c.Trial > 1 {
		return fmt.Errorf("health: trial fraction %v outside [0,1]", c.Trial)
	}
	if c.HedgeAfter < 0 {
		return fmt.Errorf("health: negative hedge threshold %v", c.HedgeAfter)
	}
	return nil
}

// String renders the config in the canonical -health spec grammar, so
// for any parseable config Parse(c.String()) reproduces c. The seed is
// deliberately absent — harnesses key it to the run seed.
func (c Config) String() string {
	if !c.On {
		return "off"
	}
	return fmt.Sprintf(
		"window=%s,error-rate=%g,min-samples=%d,open-after=%d,probation=%s,probation-jitter=%g,trial=%g,hedge-after=%s",
		c.Window, c.ErrorRate, c.MinSamples, c.OpenAfter, c.Probation, c.ProbationJitter, c.Trial, c.HedgeAfter)
}

// Fingerprint renders the policy canonically for pipeline stage
// fingerprints: any change to it must invalidate campaign checkpoints.
func (c Config) Fingerprint() string { return c.String() }

// Parse builds a Config from a -health flag spec. Empty and "off"
// disable the layer; "on" enables the Default policy; a key=value list
// starts from the Default policy and overrides individual knobs:
//
//	window=15m,error-rate=0.5,min-samples=8,open-after=4,
//	probation=45m,probation-jitter=0.5,trial=0.2,hedge-after=150ms
//
// hedge-after=0 keeps breakers and failover but disables hedging.
func Parse(s string) (Config, error) {
	const grammar = spec.Grammar("health")
	s = strings.TrimSpace(s)
	if s == "" || s == "off" {
		return Config{}, nil
	}
	c := Default()
	if s == "on" {
		return c, nil
	}
	err := grammar.Each(s, func(k, v string) (err error) {
		switch k {
		case "window":
			c.Window, err = grammar.Duration(k, v)
		case "probation":
			c.Probation, err = grammar.Duration(k, v)
		case "hedge-after":
			c.HedgeAfter, err = grammar.Duration(k, v)
		case "error-rate":
			c.ErrorRate, err = grammar.Float(k, v)
		case "probation-jitter":
			c.ProbationJitter, err = grammar.Float(k, v)
		case "trial":
			c.Trial, err = grammar.Float(k, v)
		case "min-samples":
			c.MinSamples, err = grammar.Int(k, v)
		case "open-after":
			c.OpenAfter, err = grammar.Int(k, v)
		default:
			err = grammar.Unknown(k, "window, error-rate, min-samples, open-after, probation, probation-jitter, trial, hedge-after")
		}
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
