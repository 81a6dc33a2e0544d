// Package spec is the one tokenizer behind the flag-spec grammars
// (-faults, -health, -churn, -disk-faults, -retries). They share a
// shape — comma-separated key=value entries, empty or "off" meaning
// nothing — and a handful of value forms: a number, a duration, "a@b",
// "target@start+duration". Each grammar keeps its own keys, ranges
// (Validate) and canonical rendering (String/Fingerprint); only the
// splitting and the parse-and-wrap of values live here, so all five
// report a malformed spec the same way: package, what, offending text.
package spec

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Grammar is the name a grammar's errors start with ("faults",
// "retries", …).
type Grammar string

// Errorf formats an error prefixed with the grammar's name.
func (g Grammar) Errorf(format string, args ...any) error {
	return fmt.Errorf(string(g)+": "+format, args...)
}

// Each calls set for every key=value entry of s, in order, stopping at
// the first error. Empty and "off" have no entries.
func (g Grammar) Each(s string, set func(key, val string) error) error {
	s = strings.TrimSpace(s)
	if s == "" || s == "off" {
		return nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return g.Errorf("%q is not key=value", kv)
		}
		if err := set(k, v); err != nil {
			return err
		}
	}
	return nil
}

// Unknown is the error for a key the grammar does not have; want lists
// the ones it does.
func (g Grammar) Unknown(key, want string) error {
	return g.Errorf("unknown key %q (want %s)", key, want)
}

// Float parses v as a number; what names it in the error.
func (g Grammar) Float(what, v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, g.Errorf("%s %q: %v", what, v, err)
	}
	return f, nil
}

// Int parses v as an integer.
func (g Grammar) Int(what, v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, g.Errorf("%s %q: %v", what, v, err)
	}
	return n, nil
}

// Duration parses v as a time.Duration.
func (g Grammar) Duration(what, v string) (time.Duration, error) {
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, g.Errorf("%s %q: %v", what, v, err)
	}
	return d, nil
}

// At splits "a@b" at the first @; form is the shape the error asks for.
func (g Grammar) At(what, v, form string) (a, b string, err error) {
	a, b, ok := strings.Cut(v, "@")
	if !ok {
		return "", "", g.Errorf("%s %q: want %s", what, v, form)
	}
	return a, b, nil
}

// Span parses "<start>+<duration>".
func (g Grammar) Span(what, v, form string) (start, dur time.Duration, err error) {
	ss, ds, ok := strings.Cut(v, "+")
	if !ok {
		return 0, 0, g.Errorf("%s %q: want %s", what, v, form)
	}
	if start, err = g.Duration(what+" start", ss); err != nil {
		return 0, 0, err
	}
	if dur, err = g.Duration(what+" duration", ds); err != nil {
		return 0, 0, err
	}
	return start, dur, nil
}

// Window parses "<target>@<start>+<duration>", the windowed-event form
// the fault and churn grammars share. The target may be empty.
func (g Grammar) Window(what, v, form string) (target string, start, dur time.Duration, err error) {
	target, span, err := g.At(what, v, form)
	if err != nil {
		return "", 0, 0, err
	}
	start, dur, err = g.Span(what, span, form)
	return target, start, dur, err
}
