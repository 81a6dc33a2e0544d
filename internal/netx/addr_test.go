package netx

import (
	"testing"
	"testing/quick"
)

func TestParseAddrRoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "255.255.255.255", "192.0.2.1", "10.0.0.1", "8.8.8.8"}
	for _, s := range cases {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		if got := a.String(); got != s {
			t.Errorf("ParseAddr(%q).String() = %q", s, got)
		}
	}
}

func TestParseAddrInvalid(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3", "-1.0.0.0", "1.2.3.4/24"} {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", s)
		}
	}
}

func TestAddrStringRoundTripQuick(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrFrom4(t *testing.T) {
	a := AddrFrom4(192, 0, 2, 1)
	if a != 0xC0000201 {
		t.Errorf("AddrFrom4 = %#x, want 0xC0000201", uint32(a))
	}
}

func TestPrefixNormalization(t *testing.T) {
	p := PrefixFrom(MustParseAddr("192.0.2.77"), 24)
	if p.Addr() != MustParseAddr("192.0.2.0") {
		t.Errorf("host bits not zeroed: %v", p)
	}
	if p.String() != "192.0.2.0/24" {
		t.Errorf("String = %q", p.String())
	}
}

func TestPrefixFromClamps(t *testing.T) {
	if got := PrefixFrom(0, -4).Bits(); got != 0 {
		t.Errorf("bits=-4 clamped to %d, want 0", got)
	}
	if got := PrefixFrom(0, 99).Bits(); got != 32 {
		t.Errorf("bits=99 clamped to %d, want 32", got)
	}
}

func TestParsePrefix(t *testing.T) {
	p := MustParsePrefix("10.1.0.0/16")
	if p.Bits() != 16 || p.Addr() != MustParseAddr("10.1.0.0") {
		t.Fatalf("bad parse: %v", p)
	}
	for _, s := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "10.0.0.0/x", "300.0.0.0/8"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", s)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/24")
	if !p.Contains(MustParseAddr("192.0.2.200")) {
		t.Error("should contain in-range address")
	}
	if p.Contains(MustParseAddr("192.0.3.0")) {
		t.Error("should not contain adjacent /24")
	}
	all := MustParsePrefix("0.0.0.0/0")
	if !all.Contains(MustParseAddr("255.255.255.255")) {
		t.Error("/0 should contain everything")
	}
}

func TestPrefixContainsPrefix(t *testing.T) {
	p16 := MustParsePrefix("10.1.0.0/16")
	p24 := MustParsePrefix("10.1.5.0/24")
	if !p16.ContainsPrefix(p24) {
		t.Error("/16 should contain nested /24")
	}
	if p24.ContainsPrefix(p16) {
		t.Error("/24 should not contain parent /16")
	}
	if !p16.ContainsPrefix(p16) {
		t.Error("prefix should contain itself")
	}
}

// TestPrefixCompare: address first, then length, shorter first.
func TestPrefixCompare(t *testing.T) {
	ordered := []Prefix{
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("10.0.0.0/16"),
		MustParsePrefix("10.0.0.0/24"),
		MustParsePrefix("10.0.1.0/24"),
		MustParsePrefix("10.1.0.0/16"),
	}
	for i, p := range ordered {
		for j, q := range ordered {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := p.Compare(q); got != want {
				t.Errorf("%s.Compare(%s) = %d, want %d", p, q, got, want)
			}
		}
	}
}

func TestPrefixContainsQuick(t *testing.T) {
	// Every address inside a prefix maps back into the same prefix.
	f := func(v uint32, bits8 uint8) bool {
		bits := int(bits8 % 33)
		p := PrefixFrom(Addr(v), bits)
		return p.Contains(Addr(v)) && PrefixFrom(Addr(v), bits) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNumSlash24s(t *testing.T) {
	cases := []struct {
		pfx  string
		want int
	}{
		{"10.0.0.0/24", 1},
		{"10.0.0.0/23", 2},
		{"10.0.0.0/16", 256},
		{"10.0.0.128/25", 1},
		{"10.0.0.4/30", 1},
	}
	for _, c := range cases {
		if got := MustParsePrefix(c.pfx).NumSlash24s(); got != c.want {
			t.Errorf("%s.NumSlash24s() = %d, want %d", c.pfx, got, c.want)
		}
	}
}

func TestSlash24sIteration(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/22")
	var got []Slash24
	p.Slash24s(func(s Slash24) bool {
		got = append(got, s)
		return true
	})
	if len(got) != 4 {
		t.Fatalf("got %d /24s, want 4", len(got))
	}
	if got[0].String() != "10.0.0.0/24" || got[3].String() != "10.0.3.0/24" {
		t.Errorf("wrong range: %v .. %v", got[0], got[3])
	}
	// Early stop.
	n := 0
	p.Slash24s(func(Slash24) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d, want 1", n)
	}
}

func TestSlash24AddrAt(t *testing.T) {
	s := MustParseAddr("192.0.2.0").Slash24()
	if s.AddrAt(55) != MustParseAddr("192.0.2.55") {
		t.Errorf("AddrAt(55) = %v", s.AddrAt(55))
	}
	if s.Addr() != MustParseAddr("192.0.2.0") {
		t.Errorf("Addr() = %v", s.Addr())
	}
}
