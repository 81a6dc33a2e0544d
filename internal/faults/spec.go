package faults

import (
	"strings"
	"time"

	"clientmap/internal/spec"
)

const grammar = spec.Grammar("faults")

// Parse builds a Config from a -faults flag spec such as
//
//	loss=0.02,dup=0.01,trunc=0.005,jitter=50ms,outage=fra@24h+6h
//
// Keys: loss/dup/trunc (rates in [0,1]), jitter (duration), and any
// number of windowed faults (target may be empty to match every path;
// start and duration are offsets from the campaign start):
//
//	outage=<target>@<start>+<duration>
//	brownout=<target>@<start>+<duration>*<extra-latency>*<extra-loss>
//	flap=<target>@<start>+<duration>*<period>*<down>
//
// Empty and "off" mean no faults. The seed is left zero — harnesses key
// it to the run seed.
func Parse(s string) (Config, error) {
	var c Config
	err := grammar.Each(s, func(k, v string) (err error) {
		switch k {
		case "loss":
			c.Loss, err = grammar.Float("loss rate", v)
		case "dup":
			c.Dup, err = grammar.Float("dup rate", v)
		case "trunc":
			c.Trunc, err = grammar.Float("trunc rate", v)
		case "jitter":
			c.Jitter, err = grammar.Duration("jitter", v)
		case "outage":
			o := Outage{}
			o.Target, o.Start, o.Duration, err = grammar.Window("outage", v, "<target>@<start>+<duration>")
			c.Outages = append(c.Outages, o)
		case "brownout":
			const form = "<target>@<start>+<duration>*<extra-latency>*<extra-loss>"
			b := Brownout{}
			var lat, loss string
			if b.Target, b.Start, b.Duration, lat, loss, err = parseWindowed("brownout", v, form); err != nil {
				return err
			}
			if b.ExtraLatency, err = grammar.Duration("brownout extra latency", lat); err != nil {
				return err
			}
			b.ExtraLoss, err = grammar.Float("brownout extra loss", loss)
			c.Brownouts = append(c.Brownouts, b)
		case "flap":
			const form = "<target>@<start>+<duration>*<period>*<down>"
			f := Flap{}
			var period, down string
			if f.Target, f.Start, f.Duration, period, down, err = parseWindowed("flap", v, form); err != nil {
				return err
			}
			if f.Period, err = grammar.Duration("flap period", period); err != nil {
				return err
			}
			f.Down, err = grammar.Duration("flap down time", down)
			c.Flaps = append(c.Flaps, f)
		default:
			err = grammar.Unknown(k, "loss, dup, trunc, jitter, outage, brownout, flap")
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

// parseWindowed splits "<target>@<start>+<duration>*<a>*<b>" into its
// target, window and two trailing *-separated parameters. The *-split is
// applied only after the @, so targets may contain '*'.
func parseWindowed(kind, v, form string) (target string, start, dur time.Duration, a, b string, err error) {
	target, rest, err := grammar.At(kind, v, form)
	if err != nil {
		return "", 0, 0, "", "", err
	}
	parts := strings.Split(rest, "*")
	if len(parts) != 3 {
		return "", 0, 0, "", "", grammar.Errorf("%s %q: want %s", kind, v, form)
	}
	start, dur, err = grammar.Span(kind, parts[0], form)
	return target, start, dur, parts[1], parts[2], err
}
