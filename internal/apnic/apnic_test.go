package apnic

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"clientmap/internal/world"
)

func testWorld(t testing.TB, scale world.Scale) *world.World {
	t.Helper()
	w, err := world.Generate(world.Config{Seed: 71, Scale: scale, Params: world.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestEstimateDeterministic(t *testing.T) {
	w := testWorld(t, world.ScaleTiny)
	a := Estimate(w)
	b := Estimate(w)
	if len(a.Users) != len(b.Users) || math.Abs(a.TotalUsers()-b.TotalUsers()) > 1e-6 {
		t.Fatal("estimates differ across identical runs")
	}
}

func TestCoverageGap(t *testing.T) {
	w := testWorld(t, world.ScaleSmall)
	est := Estimate(w)
	if len(est.Users) == 0 {
		t.Fatal("empty estimates")
	}
	// APNIC covers a strict minority of ASes...
	frac := float64(len(est.Users)) / float64(len(w.ASes))
	if frac > 0.75 {
		t.Errorf("APNIC covers %.0f%% of ASes; should miss the long tail", frac*100)
	}
	// ...but those ASes hold the vast majority of users.
	var covered, total float64
	for _, as := range w.ASes {
		total += as.Users
		if est.Has(as.ASN) {
			covered += as.Users
		}
	}
	if covered/total < 0.9 {
		t.Errorf("APNIC-covered ASes hold only %.0f%% of users, want >90%%", covered/total*100)
	}
}

func TestEstimatesTrackTruthForLargeASes(t *testing.T) {
	w := testWorld(t, world.ScaleSmall)
	est := Estimate(w)
	// Among well-sampled ASes, estimates should correlate with truth:
	// check rank agreement between the top truth AS and its estimate.
	var biggest *world.AS
	for _, as := range w.ASes {
		if biggest == nil || as.Users > biggest.Users {
			biggest = as
		}
	}
	if !est.Has(biggest.ASN) {
		t.Fatalf("largest AS (AS%d, %.0f users) missing from APNIC", biggest.ASN, biggest.Users)
	}
	got := est.Users[biggest.ASN]
	if got < biggest.Users*0.3 || got > biggest.Users*3 {
		t.Errorf("largest AS estimate %.0f vs truth %.0f: off by >3x", got, biggest.Users)
	}
}

func TestHostingUnderrepresented(t *testing.T) {
	w := testWorld(t, world.ScaleSmall)
	est := Estimate(w)
	counts := map[world.Category][2]int{} // [covered, total]
	for _, as := range w.ASes {
		c := counts[as.Category]
		c[1]++
		if est.Has(as.ASN) {
			c[0]++
		}
		counts[as.Category] = c
	}
	isp := counts[world.CategoryISP]
	hosting := counts[world.CategoryHosting]
	if isp[1] == 0 || hosting[1] == 0 {
		t.Skip("world lacks a category")
	}
	ispFrac := float64(isp[0]) / float64(isp[1])
	hostFrac := float64(hosting[0]) / float64(hosting[1])
	if hostFrac >= ispFrac {
		t.Errorf("hosting coverage %.2f >= ISP coverage %.2f; ad-reach bias missing", hostFrac, ispFrac)
	}
}

func TestCountryTotalsConsistent(t *testing.T) {
	w := testWorld(t, world.ScaleTiny)
	est := Estimate(w)
	var sum float64
	for _, u := range est.CountryUsers {
		sum += u
	}
	if math.Abs(sum-est.TotalUsers()) > 1 {
		t.Errorf("country totals %v != AS totals %v", sum, est.TotalUsers())
	}
	// Per-country scaling anchors sampled countries at their truth totals.
	truth := make(map[string]float64)
	for _, as := range w.ASes {
		truth[as.Country] += as.Users
	}
	for code, got := range est.CountryUsers {
		if truth[code] > 0 && math.Abs(got-truth[code])/truth[code] > 0.01 {
			t.Errorf("country %s estimate %.0f != anchored truth %.0f", code, got, truth[code])
		}
	}
}

func TestASNsSorted(t *testing.T) {
	w := testWorld(t, world.ScaleTiny)
	est := Estimate(w)
	asns := est.ASNs()
	for i := 1; i < len(asns); i++ {
		if asns[i-1] >= asns[i] {
			t.Fatal("ASNs not ascending")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	w := testWorld(t, world.ScaleTiny)
	est := Estimate(w)
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Users) != len(est.Users) {
		t.Fatalf("loaded %d ASes, want %d", len(back.Users), len(est.Users))
	}
	for asn, u := range est.Users {
		if math.Abs(back.Users[asn]-u) > 0.01 {
			t.Errorf("AS%d users %v != %v", asn, back.Users[asn], u)
		}
		if back.Impressions[asn] != est.Impressions[asn] {
			t.Errorf("AS%d impressions differ", asn)
		}
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	for _, in := range []string{"1,2", "x,1,2", "1,x,2", "1,2,x"} {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("Load(%q) succeeded", in)
		}
	}
	est, err := Load(strings.NewReader("# comment\nasn,users,impressions\n64500,10.50,3\n"))
	if err != nil || est.Users[64500] != 10.5 || est.Impressions[64500] != 3 {
		t.Errorf("Load valid: %v %+v", err, est)
	}
}
