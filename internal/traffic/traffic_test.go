package traffic

import (
	"math"
	"testing"
	"time"

	"clientmap/internal/anycast"
	"clientmap/internal/clockx"
	"clientmap/internal/domains"
	"clientmap/internal/world"
)

func testModel(t testing.TB) *Model {
	t.Helper()
	w, err := world.Generate(world.Config{Seed: 11, Scale: world.ScaleTiny, Params: world.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	router := anycast.NewRouter(11, anycast.Catalog())
	return NewModel(w, router, DefaultTunables())
}

func activePrefix(t testing.TB, m *Model) *world.PrefixInfo {
	t.Helper()
	for i := range m.W.Prefixes {
		if m.W.Prefixes[i].HasClients() && m.W.Prefixes[i].Users > 50 {
			return &m.W.Prefixes[i]
		}
	}
	t.Fatal("no sufficiently active prefix in tiny world")
	return nil
}

func TestDiurnalShape(t *testing.T) {
	day := clockx.Epoch
	peak := Diurnal(day.Add(20*time.Hour), 0)  // 20:00 UTC at lon 0
	trough := Diurnal(day.Add(8*time.Hour), 0) // 08:00 UTC at lon 0
	if peak <= trough*2 {
		t.Errorf("peak %v not well above trough %v", peak, trough)
	}
	for h := 0; h < 24; h++ {
		v := Diurnal(day.Add(time.Duration(h)*time.Hour), -74)
		if v < 0.15 || v > 1.6 {
			t.Errorf("diurnal factor %v out of range at hour %d", v, h)
		}
	}
	// Longitude shifts local time: peak hour in Tokyo is not peak in NYC.
	tokyoAtUTC20 := Diurnal(day.Add(20*time.Hour), 139)
	nycAtUTC20 := Diurnal(day.Add(20*time.Hour), -74)
	if math.Abs(tokyoAtUTC20-nycAtUTC20) < 0.05 {
		t.Error("longitude has no effect on diurnal phase")
	}
}

func TestRatesScaleWithUsersAndShare(t *testing.T) {
	m := testModel(t)
	pi := activePrefix(t, m)
	google, _ := domains.ByName("www.google.com")
	wiki, _ := domains.ByName("www.wikipedia.org")

	gr := m.GoogleDNSRate(pi, google)
	if gr <= 0 {
		t.Fatal("active prefix has zero google rate")
	}
	// Per-prefix affinity makes single-prefix comparisons noisy; in
	// aggregate, rates follow catalog weights.
	var gSum, wSum float64
	for i := range m.W.Prefixes {
		q := &m.W.Prefixes[i]
		gSum += m.GoogleDNSRate(q, google)
		wSum += m.GoogleDNSRate(q, wiki)
	}
	if gSum <= wSum {
		t.Errorf("aggregate google rate %v not above wikipedia %v", gSum, wSum)
	}
}

func TestInactivePrefixHasNoTraffic(t *testing.T) {
	m := testModel(t)
	for i := range m.W.Prefixes {
		pi := &m.W.Prefixes[i]
		if pi.HasClients() {
			continue
		}
		google, _ := domains.ByName("www.google.com")
		if m.GoogleDNSRate(pi, google) != 0 || m.HTTPRate(pi) != 0 ||
			m.SessionRate(pi) != 0 || m.ChromiumProbeRate(pi) != 0 {
			t.Fatalf("inactive prefix %v has traffic", pi.P)
		}
		return
	}
}

func TestCountInDeterministicAndScales(t *testing.T) {
	m := testModel(t)
	start := clockx.Epoch
	a := m.CountIn("k", 1.0, 0, start, time.Hour)
	b := m.CountIn("k", 1.0, 0, start, time.Hour)
	if a != b {
		t.Error("CountIn not deterministic")
	}
	if m.CountIn("k", 0, 0, start, time.Hour) != 0 {
		t.Error("zero rate produced events")
	}
	// Mean over many windows approximates rate × duration × diurnal.
	total := 0
	n := 300
	for i := 0; i < n; i++ {
		total += m.CountIn("mean", 0.01, 0, start.Add(time.Duration(i)*time.Hour), time.Hour)
	}
	got := float64(total) / float64(n)
	want := 0.01 * 3600 * 0.84 // mean diurnal ≈ 0.84
	if math.Abs(got-want)/want > 0.25 {
		t.Errorf("mean count %v, want ~%v", got, want)
	}
}

func TestLastEventBefore(t *testing.T) {
	m := testModel(t)
	now := clockx.Epoch.Add(12 * time.Hour)
	window := 5 * time.Minute

	// Rate zero: never an event.
	if _, ok := m.lastEvent("z", 0, 0, now, window); ok {
		t.Error("zero-rate process produced an event")
	}

	// Very high rate: essentially always an event, in-window, before t.
	misses := 0
	for i := 0; i < 200; i++ {
		at := now.Add(time.Duration(i) * time.Minute)
		evt, ok := m.lastEvent("hot", 10, 0, at, window)
		if !ok {
			misses++
			continue
		}
		if evt.After(at) {
			t.Fatalf("event at %v after query time %v", evt, at)
		}
		if evt.Before(at.Add(-window)) {
			t.Fatalf("event at %v outside window ending %v", evt, at)
		}
	}
	if misses > 40 {
		t.Errorf("high-rate process missing in %d/200 probes", misses)
	}

	// Low rate: mostly no event.
	hits := 0
	for i := 0; i < 200; i++ {
		at := now.Add(time.Duration(i) * time.Hour)
		if _, ok := m.lastEvent("cold", 0.00001, 0, at, window); ok {
			hits++
		}
	}
	if hits > 20 {
		t.Errorf("near-zero-rate process hit %d/200 probes", hits)
	}

	// Deterministic.
	e1, ok1 := m.lastEvent("det", 0.01, 0, now, window)
	e2, ok2 := m.lastEvent("det", 0.01, 0, now, window)
	if ok1 != ok2 || e1 != e2 {
		t.Error("LastEventBefore not deterministic")
	}
}

func TestLastEventBeforeHitRateMatchesPoisson(t *testing.T) {
	m := testModel(t)
	window := 5 * time.Minute
	rate := 0.002 // mean per bucket = 0.6 → P(hit in current or prev bucket) ≈ moderate
	hits := 0
	n := 2000
	for i := 0; i < n; i++ {
		at := clockx.Epoch.Add(time.Duration(i) * 17 * time.Minute)
		if _, ok := m.lastEvent("pois", rate, 0, at, window); ok {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	// Rough expectation: P(event within last window) ≈ 1-exp(-mean) for a
	// modulated mean around 0.6×0.84 ≈ 0.5 → ~0.39; quantization widens it.
	if frac < 0.2 || frac > 0.65 {
		t.Errorf("hit fraction %v outside plausible Poisson band", frac)
	}
}

func TestDomainsCatalogSelection(t *testing.T) {
	sel := domains.SelectProbeDomains(4, time.Minute)
	if len(sel) != 5 {
		t.Fatalf("selected %d domains, want 4 + Microsoft validation", len(sel))
	}
	want := []string{"www.google.com", "www.youtube.com", "facebook.com", "www.wikipedia.org"}
	for i, name := range want {
		if sel[i].Name != name {
			t.Errorf("selection[%d] = %s, want %s (paper §3.1.1)", i, sel[i].Name, name)
		}
	}
	if !sel[4].Microsoft {
		t.Error("last selected domain is not the Microsoft validation domain")
	}
	for _, d := range sel {
		if !d.SupportsECS {
			t.Errorf("%s selected but does not support ECS", d.Name)
		}
		if !d.Microsoft && d.TTL <= time.Minute {
			t.Errorf("%s selected with TTL %v <= 1m", d.Name, d.TTL)
		}
	}
}

func TestDomainsByName(t *testing.T) {
	if _, ok := domains.ByName("www.google.com"); !ok {
		t.Error("www.google.com missing")
	}
	if _, ok := domains.ByName("no.such.domain"); ok {
		t.Error("unknown domain found")
	}
	// Catalog ranks are unique.
	seen := map[int]string{}
	for _, d := range domains.Catalog() {
		if other, dup := seen[d.Rank]; dup {
			t.Errorf("rank %d shared by %s and %s", d.Rank, d.Name, other)
		}
		seen[d.Rank] = d.Name
	}
}
