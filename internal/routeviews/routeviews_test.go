package routeviews

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"clientmap/internal/netx"
	"clientmap/internal/world"
)

func testWorld(t testing.TB) *world.World {
	t.Helper()
	w, err := world.Generate(world.Config{Seed: 51, Scale: world.ScaleTiny, Params: world.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestFromWorldAgreesWithGroundTruth(t *testing.T) {
	w := testWorld(t)
	tbl := FromWorld(w)
	for _, as := range w.ASes {
		for _, b := range as.Blocks {
			asn, ok := tbl.ASNOfPrefix(b)
			if !ok || asn != as.ASN {
				t.Fatalf("block %v maps to %d/%v, want %d", b, asn, ok, as.ASN)
			}
			asn, ok = tbl.ASNOf(b.Addr())
			if !ok || asn != as.ASN {
				t.Fatalf("addr %v maps to %d/%v, want %d", b.Addr(), asn, ok, as.ASN)
			}
		}
		if got := tbl.Announced24s(as.ASN); got != as.NumSlash24s() {
			t.Errorf("AS%d announced24 = %d, want %d", as.ASN, got, as.NumSlash24s())
		}
	}
}

func TestGoogleSynthetic(t *testing.T) {
	w := testWorld(t)
	tbl := FromWorld(w)
	asn, ok := tbl.ASNOf(w.GoogleEgress(3))
	if !ok || asn != world.GoogleASN {
		t.Errorf("google egress maps to %d/%v", asn, ok)
	}
}

func TestUnannouncedSpaceMisses(t *testing.T) {
	tbl := FromWorld(testWorld(t))
	if _, ok := tbl.ASNOf(netx.MustParseAddr("240.0.0.1")); ok {
		t.Error("reserved space resolved to an AS")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tbl := FromWorld(testWorld(t))
	var buf bytes.Buffer
	if err := tbl.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tbl.Len() {
		t.Fatalf("loaded %d announcements, want %d", back.Len(), tbl.Len())
	}
	for _, asn := range tbl.ASNs() {
		if back.Announced24s(asn) != tbl.Announced24s(asn) {
			t.Errorf("AS%d announced24 mismatch after round trip", asn)
		}
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	cases := []string{
		"1.2.3.0\t24",           // missing asn
		"1.2.3.0\t33\t5",        // bad length
		"1.2.3.0\t24\tnotanasn", // bad asn
		"nonsense\t24\t5",       // bad addr
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("Load(%q) succeeded", c)
		}
	}
	// Comments and blank lines are fine.
	tbl, err := Load(strings.NewReader("# comment\n\n1.2.3.0\t24\t64500\n"))
	if err != nil || tbl.Len() != 1 {
		t.Errorf("Load with comments: %v, len %d", err, tbl.Len())
	}
}

// Load parses the prefix2as text format.
func Load(r io.Reader) (*Table, error) {
	t := New()
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("routeviews: line %d: want 3 fields, got %d", line, len(fields))
		}
		addr, err := netx.ParseAddr(fields[0])
		if err != nil {
			return nil, fmt.Errorf("routeviews: line %d: %v", line, err)
		}
		bits, err := strconv.Atoi(fields[1])
		if err != nil || bits < 0 || bits > 32 {
			return nil, fmt.Errorf("routeviews: line %d: bad length %q", line, fields[1])
		}
		asn, err := strconv.ParseUint(fields[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("routeviews: line %d: bad asn %q", line, fields[2])
		}
		t.Add(netx.PrefixFrom(addr, bits), uint32(asn))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
