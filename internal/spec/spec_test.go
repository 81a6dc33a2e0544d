package spec

import (
	"strings"
	"testing"
	"time"
)

const g = Grammar("demo")

func TestEach(t *testing.T) {
	for _, off := range []string{"", "off", "  off  "} {
		if err := g.Each(off, func(k, v string) error { t.Errorf("%q yielded entry %s=%s", off, k, v); return nil }); err != nil {
			t.Errorf("Each(%q) = %v", off, err)
		}
	}
	var got []string
	if err := g.Each(" a=1, b=x=y ,c=", func(k, v string) error { got = append(got, k+"→"+v); return nil }); err != nil {
		t.Fatal(err)
	}
	if want := "a→1 b→x=y c→"; strings.Join(got, " ") != want {
		t.Errorf("entries %q, want %q", got, want)
	}
	for _, bad := range []string{"a", "a=1,", ",", "a=1,,b=2"} {
		err := g.Each(bad, func(string, string) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "demo: ") || !strings.Contains(err.Error(), "not key=value") {
			t.Errorf("Each(%q) = %v, want a demo: … not key=value error", bad, err)
		}
	}
	stop := g.Errorf("stop")
	if err := g.Each("a=1,b=2", func(k, _ string) error {
		if k == "b" {
			t.Error("Each went on after an error")
		}
		return stop
	}); err != stop {
		t.Errorf("Each returned %v, want the callback's error", err)
	}
}

// Every value form reports the grammar, what was being parsed and the
// offending text.
func TestValueErrorsNameGrammarAndValue(t *testing.T) {
	_, ferr := g.Float("loss rate", "lots")
	_, ierr := g.Int("count", "1.5")
	_, derr := g.Duration("jitter", "fast")
	_, _, aerr := g.At("realloc", "4", "<count>@<every>")
	_, _, _, werr := g.Window("outage", "fra@24h", "<target>@<start>+<duration>")
	_, _, _, serr := g.Window("outage", "fra@soon+6h", "<target>@<start>+<duration>")
	for _, tc := range []struct {
		err  error
		want []string
	}{
		{ferr, []string{"demo: loss rate", `"lots"`}},
		{ierr, []string{"demo: count", `"1.5"`}},
		{derr, []string{"demo: jitter", `"fast"`}},
		{aerr, []string{"demo: realloc", `"4"`, "<count>@<every>"}},
		{werr, []string{"demo: outage", `"24h"`, "<start>+<duration>"}},
		{serr, []string{"demo: outage start", `"soon"`}},
		{g.Unknown("lossy", "loss, dup"), []string{"demo: unknown key", `"lossy"`, "loss, dup"}},
	} {
		if tc.err == nil {
			t.Errorf("no error, want one containing %q", tc.want)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(tc.err.Error(), w) {
				t.Errorf("error %q lacks %q", tc.err, w)
			}
		}
	}
}

func TestWindow(t *testing.T) {
	target, start, dur, err := g.Window("outage", "@24h+6h", "<target>@<start>+<duration>")
	if err != nil || target != "" || start != 24*time.Hour || dur != 6*time.Hour {
		t.Errorf("Window = %q, %v, %v, %v", target, start, dur, err)
	}
	// Only the first @ splits, so the span may not contain one.
	if _, _, _, err := g.Window("pop", "a@b@1h+1h", "<name>@<start>+<duration>"); err == nil {
		t.Error("second @ accepted inside the span")
	}
}
