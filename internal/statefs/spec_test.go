package statefs

import (
	"testing"
	"time"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"off",
		"torn=probe-pass-1@1",
		"bitrot=@0.01",
		"enospc=calibration@0.5,rename-fail=stream-hour-3@1",
		"torn=a@0.1,torn=b@0.9,slow=.snap@5ms",
		"slow=@1h0m0s",
	}
	for _, spec := range cases {
		c, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		got := c.String()
		c2, err := Parse(got)
		if err != nil {
			t.Fatalf("Parse(String(%q)) = Parse(%q): %v", spec, got, err)
		}
		if got2 := c2.String(); got2 != got {
			t.Errorf("String not a fixpoint: %q -> %q -> %q", spec, got, got2)
		}
	}
}

func TestParseEmptyAndOff(t *testing.T) {
	for _, spec := range []string{"", "off", "  off  "} {
		c, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if c.Enabled() {
			t.Errorf("Parse(%q).Enabled() = true", spec)
		}
		if c.String() != "off" {
			t.Errorf("Parse(%q).String() = %q, want \"off\"", spec, c.String())
		}
	}
}

func TestParseCanonicalOrder(t *testing.T) {
	c, err := Parse("slow=x@1ms,bitrot=@1,torn=b@0.5,torn=a@0.5,enospc=@0.2,rename-fail=@0.3")
	if err != nil {
		t.Fatal(err)
	}
	want := "torn=a@0.5,torn=b@0.5,enospc=@0.2,rename-fail=@0.3,bitrot=@1,slow=x@1ms"
	if got := c.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"torn",                 // not key=value
		"torn=probe",           // missing @rate
		"torn=probe@huh",       // unparseable rate
		"torn=@1.5",            // rate out of range
		"bitrot=@-0.1",         // negative rate
		"bitrot=@NaN",          // NaN rate
		"slow=x@fast",          // unparseable duration
		"slow=x@-5ms",          // negative delay
		"scratch=@1",           // unknown key
		"torn=@1,,bitrot=@0.1", // empty clause
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestValidate(t *testing.T) {
	ok := Config{Torn: []Rule{{"x", 0.5}}, Slow: []SlowRule{{"", time.Millisecond}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := (Config{ENOSPC: []Rule{{"", 2}}}).Validate(); err == nil {
		t.Error("rate 2 passed Validate")
	}
	if err := (Config{Slow: []SlowRule{{"", -1}}}).Validate(); err == nil {
		t.Error("negative delay passed Validate")
	}
}

// FuzzParse asserts the grammar's fixpoint: any spec that parses must
// re-render to a spec that parses to the same canonical form.
func FuzzParse(f *testing.F) {
	f.Add("off")
	f.Add("torn=probe-pass-1@1")
	f.Add("bitrot=@0.01,slow=.snap@5ms")
	f.Add("enospc=a@0.25,rename-fail=b@0.75,torn=@0")
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := Parse(spec)
		if err != nil {
			return
		}
		s1 := c.String()
		c2, err := Parse(s1)
		if err != nil {
			t.Fatalf("canonical spec %q does not re-parse: %v", s1, err)
		}
		if s2 := c2.String(); s2 != s1 {
			t.Fatalf("String not a fixpoint: %q -> %q -> %q", spec, s1, s2)
		}
	})
}
