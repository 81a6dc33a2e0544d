package analysis

import (
	"math"
	"testing"

	"clientmap/internal/core/datasets"
	"clientmap/internal/netx"
	"clientmap/internal/routeviews"
)

func TestASOverlapMatrix(t *testing.T) {
	a := datasets.NewASDataset("a")
	a.Add(1, 1)
	a.Add(2, 1)
	a.Add(3, 1)
	b := datasets.NewASDataset("b")
	b.Add(2, 1)
	b.Add(3, 1)
	b.Add(4, 1)

	m := ASOverlapMatrix([]*datasets.ASDataset{a, b})
	if m.Size(0) != 3 || m.Size(1) != 3 {
		t.Errorf("sizes = %d, %d", m.Size(0), m.Size(1))
	}
	if m.Inter[0][1] != 2 || m.Inter[1][0] != 2 {
		t.Errorf("intersections = %v", m.Inter)
	}
	if got := m.Pct(0, 1); math.Abs(got-66.666) > 0.01 {
		t.Errorf("Pct = %v", got)
	}
}

func TestPrefixOverlapMatrix(t *testing.T) {
	a := datasets.NewPrefixDataset("a")
	a.Add(netx.MustParsePrefix("10.0.0.0/24").FirstSlash24(), 0)
	a.Add(netx.MustParsePrefix("10.0.1.0/24").FirstSlash24(), 0)
	b := datasets.NewPrefixDataset("b")
	b.Add(netx.MustParsePrefix("10.0.1.0/24").FirstSlash24(), 0)

	m := PrefixOverlapMatrix([]*datasets.PrefixDataset{a, b})
	if m.Inter[0][1] != 1 || m.Size(0) != 2 || m.Size(1) != 1 {
		t.Errorf("matrix = %v", m.Inter)
	}
	if m.Pct(1, 0) != 100 {
		t.Errorf("Pct(1,0) = %v", m.Pct(1, 0))
	}
}

func TestVolumeOverlap(t *testing.T) {
	a := datasets.NewASDataset("a")
	a.Add(1, 90)
	a.Add(2, 10)
	b := datasets.NewASDataset("b")
	b.Add(1, 1)

	m := VolumeOverlap([]*datasets.ASDataset{a}, []*datasets.ASDataset{a, b})
	if m.Pct[0][0] != 100 {
		t.Errorf("self overlap = %v", m.Pct[0][0])
	}
	if m.Pct[0][1] != 90 {
		t.Errorf("overlap with b = %v, want 90", m.Pct[0][1])
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4, 5})
	if c.Len() != 5 {
		t.Errorf("Len = %d", c.Len())
	}
	if got := c.Quantile(0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	pts := c.Points(3)
	if len(pts) != 3 || pts[0][0] != 1 || pts[2][0] != 5 {
		t.Errorf("Points = %v", pts)
	}
	// Empty CDF does not panic.
	e := NewCDF(nil)
	if !math.IsNaN(e.Quantile(0.5)) || e.Points(5) != nil {
		t.Error("empty CDF misbehaves")
	}
}

func TestASActiveFractions(t *testing.T) {
	rv := routeviews.New()
	rv.Add(netx.MustParsePrefix("10.0.0.0/16"), 100) // 256 /24s
	rv.Add(netx.MustParsePrefix("10.1.0.0/20"), 200) // 16 /24s

	hits := []netx.Prefix{
		netx.MustParsePrefix("10.0.0.0/20"),  // 16 /24s in AS100
		netx.MustParsePrefix("10.0.0.0/24"),  // nested inside the /20
		netx.MustParsePrefix("10.0.64.0/24"), // separate /24 in AS100
		netx.MustParsePrefix("10.1.0.0/22"),  // 4 /24s in AS200
	}
	bounds := ASActiveFractions(hits, rv)
	byASN := map[uint32]ASBounds{}
	for _, b := range bounds {
		byASN[b.ASN] = b
	}

	b100 := byASN[100]
	// Lower: /20 (the /24 inside is nested) + the separate /24 = 2.
	if b100.LowerActive != 2 {
		t.Errorf("AS100 lower = %d, want 2", b100.LowerActive)
	}
	// Upper: 16 + 1 = 17.
	if b100.UpperActive != 17 {
		t.Errorf("AS100 upper = %d, want 17", b100.UpperActive)
	}
	if math.Abs(b100.UpperFrac()-17.0/256) > 1e-12 {
		t.Errorf("AS100 upper frac = %v", b100.UpperFrac())
	}

	b200 := byASN[200]
	if b200.LowerActive != 1 || b200.UpperActive != 4 {
		t.Errorf("AS200 bounds = %d/%d, want 1/4", b200.LowerActive, b200.UpperActive)
	}
	if b200.LowerFrac() > b200.UpperFrac() {
		t.Error("lower bound above upper bound")
	}
}

func TestUpperFracCapped(t *testing.T) {
	b := ASBounds{ASN: 1, Announced24s: 4, UpperActive: 10}
	if b.UpperFrac() != 1 {
		t.Errorf("UpperFrac = %v, want capped at 1", b.UpperFrac())
	}
	zero := ASBounds{ASN: 2}
	if zero.UpperFrac() != 0 || zero.LowerFrac() != 0 {
		t.Error("zero-announcement AS should have zero fractions")
	}
}

func TestCountryCoverageByAS(t *testing.T) {
	users := map[uint32]float64{1: 90, 2: 10, 3: 50}
	country := map[uint32]string{1: "US", 2: "US", 3: "BR"}
	detected := func(asn uint32) bool { return asn == 1 }

	cov := CountryCoverageByAS(users, country, detected)
	byCountry := map[string]CountryCoverage{}
	for _, c := range cov {
		byCountry[c.Country] = c
	}
	if got := byCountry["US"]; got.Users != 100 || got.CoveredFrac != 0.9 {
		t.Errorf("US = %+v", got)
	}
	if got := byCountry["BR"]; got.CoveredFrac != 0 {
		t.Errorf("BR = %+v", got)
	}
}

func TestRelativeVolumeCDFAndDiffs(t *testing.T) {
	a := datasets.NewASDataset("a")
	a.Add(1, 50)
	a.Add(2, 50)
	b := datasets.NewASDataset("b")
	b.Add(1, 100)

	cdf := RelativeVolumeCDF(a)
	if cdf.Len() != 2 || cdf.Quantile(0.9) != 0.5 {
		t.Errorf("CDF = %+v", cdf)
	}

	diffs := PairwiseVolumeDiffs(a, b)
	// AS1: 0.5 - 1.0 = -0.5; AS2: 0.5 - 0 = 0.5.
	if len(diffs) != 2 || diffs[0] != -0.5 || diffs[1] != 0.5 {
		t.Errorf("diffs = %v", diffs)
	}
}
