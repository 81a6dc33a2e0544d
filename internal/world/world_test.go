package world

import (
	"math"
	"testing"

	"clientmap/internal/geo"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
)

func tinyWorld(t testing.TB, seed randx.Seed) *World {
	t.Helper()
	cfg := Config{Seed: seed, Scale: ScaleTiny, Params: DefaultParams()}
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateDeterministic(t *testing.T) {
	a := tinyWorld(t, 7)
	b := tinyWorld(t, 7)
	if len(a.ASes) != len(b.ASes) || len(a.Prefixes) != len(b.Prefixes) || len(a.Resolvers) != len(b.Resolvers) {
		t.Fatalf("sizes differ: %d/%d ASes, %d/%d prefixes, %d/%d resolvers",
			len(a.ASes), len(b.ASes), len(a.Prefixes), len(b.Prefixes), len(a.Resolvers), len(b.Resolvers))
	}
	for i := range a.Prefixes {
		pa, pb := a.Prefixes[i], b.Prefixes[i]
		if pa.P != pb.P || pa.Users != pb.Users || pa.ASIdx != pb.ASIdx {
			t.Fatalf("prefix %d differs: %+v vs %+v", i, pa, pb)
		}
	}
	for i := range a.ASes {
		if a.ASes[i].ASN != b.ASes[i].ASN || a.ASes[i].Users != b.ASes[i].Users {
			t.Fatalf("AS %d differs", i)
		}
	}
}

func TestGenerateSeedSensitive(t *testing.T) {
	a := tinyWorld(t, 1)
	b := tinyWorld(t, 2)
	if len(a.Prefixes) == len(b.Prefixes) && len(a.ASes) == len(b.ASes) {
		same := true
		for i := range a.Prefixes {
			if a.Prefixes[i].P != b.Prefixes[i].P {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical prefix allocations")
		}
	}
}

func TestScaleByName(t *testing.T) {
	for _, want := range []Scale{ScaleTiny, ScaleSmall, ScaleMedium, ScaleLarge} {
		if got, ok := ScaleByName(want.Name); !ok || got != want {
			t.Errorf("ScaleByName(%q) = %+v, %v", want.Name, got, ok)
		}
	}
	for _, name := range []string{"", "huge", "Tiny"} {
		if _, ok := ScaleByName(name); ok {
			t.Errorf("ScaleByName(%q) accepted", name)
		}
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestWorldInvariants(t *testing.T) {
	w := tinyWorld(t, 42)

	if len(w.ASes) < ScaleTiny.NumASes/2 {
		t.Errorf("only %d ASes generated", len(w.ASes))
	}
	if len(w.Prefixes) == 0 || len(w.Resolvers) == 0 {
		t.Fatalf("empty world: %d prefixes, %d resolvers", len(w.Prefixes), len(w.Resolvers))
	}

	// Every AS's prefix range is consistent and all its /24s map back.
	seen := make(map[netx.Slash24]bool)
	for i, as := range w.ASes {
		if as.PrefixHi < as.PrefixLo {
			t.Fatalf("AS %d inverted prefix range", i)
		}
		if int(as.PrefixHi-as.PrefixLo) != as.NumSlash24s() {
			t.Errorf("AS %d: range %d != announced %d", i, as.PrefixHi-as.PrefixLo, as.NumSlash24s())
		}
		for j := as.PrefixLo; j < as.PrefixHi; j++ {
			pi := w.Prefixes[j]
			if pi.ASIdx != int32(i) {
				t.Fatalf("prefix %v has ASIdx %d, want %d", pi.P, pi.ASIdx, i)
			}
			if seen[pi.P] {
				t.Fatalf("prefix %v allocated twice", pi.P)
			}
			seen[pi.P] = true
			// LPM over announcements agrees.
			as2, ok := w.ASOf(pi.P.Addr())
			if !ok || as2.ASN != as.ASN {
				t.Fatalf("announcement lookup for %v failed", pi.P)
			}
		}
		if as.GoogleDNSShare < 0.02 || as.GoogleDNSShare > 0.9 {
			t.Errorf("AS %d google share %v out of bounds", i, as.GoogleDNSShare)
		}
	}
}

func TestBlocksDontOverlap(t *testing.T) {
	w := tinyWorld(t, 3)
	var blocks []netx.Prefix
	for _, as := range w.ASes {
		blocks = append(blocks, as.Blocks...)
	}
	for i := 0; i < len(blocks); i++ {
		for j := i + 1; j < len(blocks); j++ {
			if blocks[i].ContainsPrefix(blocks[j]) || blocks[j].ContainsPrefix(blocks[i]) {
				t.Fatalf("blocks %v and %v overlap", blocks[i], blocks[j])
			}
		}
	}
}

func TestUsersDistribution(t *testing.T) {
	w := tinyWorld(t, 42)

	// World total users roughly matches the scale target.
	want := float64(len(w.Prefixes)) * ScaleTiny.UsersPerSlash24
	got := w.TotalUsers()
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("total users %v, want ~%v", got, want)
	}

	// Per-AS users equal the sum over its prefixes (within float32 slack).
	for i, as := range w.ASes {
		var sum float64
		active := 0
		for j := as.PrefixLo; j < as.PrefixHi; j++ {
			sum += float64(w.Prefixes[j].Users)
			if w.Prefixes[j].HasClients() {
				active++
			}
		}
		// The 0.05-user per-prefix floor distorts micro ASes; check the
		// invariant where it is negligible.
		if as.Users > 20 && math.Abs(sum-as.Users)/as.Users > 0.05 {
			t.Errorf("AS %d: prefix users sum %v, AS users %v", i, sum, as.Users)
		}
		if as.Users > 0 && active == 0 {
			t.Errorf("AS %d has users but no active prefixes", i)
		}
	}
}

func TestActiveFractionVaries(t *testing.T) {
	// Figure 4 requires wide variation in per-AS active fractions.
	cfg := Config{Seed: 9, Scale: ScaleSmall, Params: DefaultParams()}
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	low, high := 0, 0
	for _, as := range w.ASes {
		n := int(as.PrefixHi - as.PrefixLo)
		if n < 10 {
			continue
		}
		active := 0
		for j := as.PrefixLo; j < as.PrefixHi; j++ {
			if w.Prefixes[j].HasClients() {
				active++
			}
		}
		frac := float64(active) / float64(n)
		if frac < 0.3 {
			low++
		}
		if frac > 0.8 {
			high++
		}
	}
	if low == 0 || high == 0 {
		t.Errorf("active fractions not spread: %d sparse, %d saturated ASes", low, high)
	}
}

func TestResolversWired(t *testing.T) {
	w := tinyWorld(t, 42)

	withResolver := 0
	rootVisible := 0
	for _, r := range w.Resolvers {
		as := w.ASes[r.ASIdx]
		// Resolver address must be inside one of its AS's blocks.
		inside := false
		for _, b := range as.Blocks {
			if b.Contains(r.Addr) {
				inside = true
			}
		}
		if !inside {
			t.Errorf("resolver %v outside its AS blocks", r.Addr)
		}
		if r.ForwardsToRoots {
			rootVisible++
		}
	}
	for _, as := range w.ASes {
		if len(as.Resolvers) > 0 {
			withResolver++
		}
	}
	if frac := float64(withResolver) / float64(len(w.ASes)); frac < 0.4 || frac > 0.95 {
		t.Errorf("fraction of ASes with resolvers = %v", frac)
	}
	if frac := float64(rootVisible) / float64(len(w.Resolvers)); frac < 0.6 || frac > 0.95 {
		t.Errorf("fraction of root-visible resolvers = %v", frac)
	}

	// Active prefixes in resolver-bearing ASes point at a resolver.
	for _, pi := range w.Prefixes {
		if !pi.HasClients() {
			continue
		}
		as := w.ASes[pi.ASIdx]
		if len(as.Resolvers) > 0 && pi.ResolverIdx < 0 {
			t.Errorf("active prefix %v in resolver-bearing AS has no resolver", pi.P)
		}
		if pi.ResolverIdx >= int32(len(w.Resolvers)) {
			t.Errorf("prefix %v resolver index out of range", pi.P)
		}
	}
}

func TestGeoDBCoversAllPrefixes(t *testing.T) {
	w := tinyWorld(t, 42)
	db := w.GeoDB()
	entries := 0
	db.Range(func(netx.Slash24, geo.Location) bool { entries++; return true })
	if entries != len(w.Prefixes) {
		t.Fatalf("geoDB has %d entries, want %d", entries, len(w.Prefixes))
	}
	within := 0
	for _, pi := range w.Prefixes {
		loc, ok := db.Lookup(pi.P)
		if !ok {
			t.Fatalf("no geo entry for %v", pi.P)
		}
		if loc.ErrorKm <= 0 {
			t.Errorf("%v: non-positive error radius", pi.P)
		}
		if geo.DistanceKm(loc.Coord, pi.Coord) <= loc.ErrorKm {
			within++
		}
	}
	// The reported error radius should usually cover the truth.
	if frac := float64(within) / float64(len(w.Prefixes)); frac < 0.85 {
		t.Errorf("only %.0f%% of geo entries within stated error radius", frac*100)
	}
}

func TestPrefixInfoOf(t *testing.T) {
	w := tinyWorld(t, 42)
	pi, ok := w.PrefixInfoOf(w.Prefixes[0].P)
	if !ok || pi.P != w.Prefixes[0].P {
		t.Fatal("PrefixInfoOf failed for allocated prefix")
	}
	if _, ok := w.PrefixInfoOf(netx.Slash24(10)); ok {
		t.Error("PrefixInfoOf succeeded for unallocated prefix")
	}
}

func TestCategoryMixRoughlyMatchesShares(t *testing.T) {
	cfg := Config{Seed: 5, Scale: ScaleSmall, Params: DefaultParams()}
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Category]int{}
	for _, as := range w.ASes {
		counts[as.Category]++
	}
	n := float64(len(w.ASes))
	for cat, share := range categoryShare {
		got := float64(counts[cat]) / n
		if math.Abs(got-share) > 0.08 {
			t.Errorf("category %s share %.2f, want ~%.2f", cat, got, share)
		}
	}
}

func BenchmarkGenerateSmall(b *testing.B) {
	cfg := Config{Seed: 1, Scale: ScaleSmall, Params: DefaultParams()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ASOf returns the AS announcing the /24 containing a, if any.
func (w *World) ASOf(a netx.Addr) (*AS, bool) {
	idx, _, ok := w.announcements.Lookup(a)
	if !ok {
		return nil, false
	}
	return w.ASes[idx], true
}
