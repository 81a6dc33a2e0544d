package geo

import (
	"math"
	"testing"
	"testing/quick"

	"clientmap/internal/netx"
	"clientmap/internal/randx"
)

func TestDistanceKnownPairs(t *testing.T) {
	nyc := Coord{40.71, -74.01}
	la := Coord{34.05, -118.24}
	lon := Coord{51.51, -0.13}
	cases := []struct {
		a, b      Coord
		wantKm    float64
		tolerance float64
	}{
		{nyc, la, 3936, 60},
		{nyc, lon, 5570, 80},
		{nyc, nyc, 0, 0.001},
	}
	for _, c := range cases {
		got := DistanceKm(c.a, c.b)
		if math.Abs(got-c.wantKm) > c.tolerance {
			t.Errorf("DistanceKm(%v,%v) = %.0f, want %.0f±%.0f", c.a, c.b, got, c.wantKm, c.tolerance)
		}
	}
}

func TestDistanceSymmetricNonNegative(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Coord{math.Mod(lat1, 90), math.Mod(lon1, 180)}
		b := Coord{math.Mod(lat2, 90), math.Mod(lon2, 180)}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return d1 >= 0 && math.Abs(d1-d2) < 1e-6 && d1 <= math.Pi*EarthRadiusKm+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestJitterWithinRadius(t *testing.T) {
	s := randx.Seed(1).New("jitter")
	center := Coord{48.0, 11.0}
	for i := 0; i < 500; i++ {
		p := Jitter(s, center, 200)
		// Flat-earth offset plus haversine re-measurement introduces a small
		// error; allow 5% slack.
		if d := DistanceKm(center, p); d > 210 {
			t.Fatalf("jittered point %v is %.0f km away, radius 200", p, d)
		}
	}
	if p := Jitter(s, center, 0); p != center {
		t.Error("zero-radius jitter moved the point")
	}
}

func TestOffsetWrapsLongitude(t *testing.T) {
	p := Offset(Coord{0, 179.9}, 100, math.Pi/2) // due east over the antimeridian
	if p.Lon > 180 || p.Lon < -180 {
		t.Errorf("longitude not wrapped: %v", p)
	}
}

func TestDBBasics(t *testing.T) {
	db := NewDB()
	p := netx.MustParsePrefix("192.0.2.0/24").FirstSlash24()
	if _, ok := db.Lookup(p); ok {
		t.Error("lookup in empty DB succeeded")
	}
	loc := Location{Coord: Coord{52.1, 5.2}, ErrorKm: 50, Country: "NL"}
	db.Set(p, loc)
	got, ok := db.Lookup(p)
	if !ok || got != loc {
		t.Errorf("Lookup = %+v %v", got, ok)
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestDBRangeDeterministicOrder(t *testing.T) {
	db := NewDB()
	for _, s := range []string{"9.9.9.0/24", "1.1.1.0/24", "5.5.5.0/24"} {
		db.Set(netx.MustParsePrefix(s).FirstSlash24(), Location{})
	}
	var got []netx.Slash24
	db.Range(func(p netx.Slash24, _ Location) bool {
		got = append(got, p)
		return true
	})
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Errorf("Range not ascending at %d", i)
		}
	}
}

func TestPossiblyWithin(t *testing.T) {
	pop := Coord{52.0, 5.0}
	near := Location{Coord: Coord{52.5, 5.5}, ErrorKm: 10}
	if !near.PossiblyWithin(pop, 200) {
		t.Error("nearby prefix excluded")
	}
	// ~550 km away but with a 500 km error radius: possibly within 200.
	vague := Location{Coord: Coord{47.0, 5.0}, ErrorKm: 500}
	if !vague.PossiblyWithin(pop, 200) {
		t.Error("large-error prefix should be possibly within")
	}
	far := Location{Coord: Coord{40.0, -74.0}, ErrorKm: 10}
	if far.PossiblyWithin(pop, 200) {
		t.Error("transatlantic prefix included")
	}
}

func TestCountryCatalog(t *testing.T) {
	if len(Countries) < 60 {
		t.Errorf("catalog has %d countries, want >= 60", len(Countries))
	}
	seen := map[string]bool{}
	for _, c := range Countries {
		if seen[c.Code] {
			t.Errorf("duplicate country code %s", c.Code)
		}
		seen[c.Code] = true
		if c.UsersM <= 0 || c.SpreadKm <= 0 {
			t.Errorf("%s has non-positive users/spread", c.Code)
		}
		if c.Center.Lat < -90 || c.Center.Lat > 90 || c.Center.Lon < -180 || c.Center.Lon > 180 {
			t.Errorf("%s has invalid center %v", c.Code, c.Center)
		}
	}
	// Figure 3 names these South American countries; they must exist.
	for _, code := range []string{"BR", "BO", "AR", "PE", "EC", "PY", "UY", "CO", "CL", "VE", "SR"} {
		c, ok := CountryByCode(code)
		if !ok {
			t.Errorf("country %s missing from catalog", code)
			continue
		}
		if c.Region != RegionSouthAmerica {
			t.Errorf("%s region = %s", code, c.Region)
		}
	}
	if _, ok := CountryByCode("XX"); ok {
		t.Error("unknown code resolved")
	}
}

// Len returns the number of entries.
func (db *DB) Len() int { return len(db.entries) }
