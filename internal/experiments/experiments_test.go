package experiments

import (
	"bytes"
	"io"
	"testing"
	"time"

	"clientmap/internal/randx"
	"clientmap/internal/roots"
	"clientmap/internal/world"
)

// runTiny executes the full evaluation once per test binary.
var tinyResults *Results

func tinyRun(t testing.TB) *Results {
	t.Helper()
	if tinyResults != nil {
		return tinyResults
	}
	cfg := DefaultConfig(randx.Seed(2021), world.ScaleTiny)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tinyResults = res
	return res
}

func TestRunProducesAllDatasets(t *testing.T) {
	r := tinyRun(t)
	for name, n := range map[string]int{
		"cacheprobe prefixes":  r.PfxCacheProbe.Len(),
		"dnslogs prefixes":     r.PfxDNSLogs.Len(),
		"ms clients prefixes":  r.PfxMSClients.Len(),
		"ms resolver prefixes": r.PfxMSResolvers.Len(),
		"cacheprobe ASes":      r.ASCacheProbe.Len(),
		"dnslogs ASes":         r.ASDNSLogs.Len(),
		"apnic ASes":           r.ASAPNIC.Len(),
		"ms clients ASes":      r.ASMSClients.Len(),
		"ms resolvers ASes":    r.ASMSResolvers.Len(),
	} {
		if n == 0 {
			t.Errorf("%s empty", name)
		}
	}
}

// TestShapeTable3 asserts the qualitative orderings of the paper's AS
// overlap results: Microsoft clients is the broadest view; APNIC is the
// narrowest; the union beats either technique alone; both techniques
// recover most APNIC ASes while APNIC misses most of Microsoft's.
func TestShapeTable3(t *testing.T) {
	r := tinyRun(t)
	m := r.Table3()
	idx := map[string]int{}
	for i, n := range m.Names {
		idx[n] = i
	}
	cp, dl, un, ap, mc := idx[NameCacheProbe], idx[NameDNSLogs], idx[NameUnion], idx[NameAPNIC], idx[NameMSClients]

	// The CDN view is the broadest; the union may exceed it only by
	// resolver-infrastructure ASes such as Google's (AS15169), which DNS
	// logs sees as a query source but client datasets do not.
	if m.Size(mc) < m.Size(un)-1 {
		t.Errorf("MS clients (%d ASes) should be at least union (%d) minus infrastructure ASes", m.Size(mc), m.Size(un))
	}
	if m.Size(ap) >= m.Size(cp) || m.Size(ap) >= m.Size(dl) {
		t.Errorf("APNIC (%d) should be smaller than both techniques (%d, %d)",
			m.Size(ap), m.Size(cp), m.Size(dl))
	}
	if m.Size(un) <= m.Size(cp) || m.Size(un) <= m.Size(dl) {
		t.Errorf("union (%d) should exceed both techniques (%d, %d)",
			m.Size(un), m.Size(cp), m.Size(dl))
	}
	// Both techniques recover a majority of APNIC's ASes (paper: 81.9%
	// and 74.2%).
	if pct := m.Pct(ap, cp); pct < 50 {
		t.Errorf("cache probing recovers only %.0f%% of APNIC", pct)
	}
	if pct := m.Pct(ap, dl); pct < 50 {
		t.Errorf("DNS logs recovers only %.0f%% of APNIC", pct)
	}
	// APNIC misses most Microsoft-clients ASes (paper: misses 64%).
	if pct := m.Pct(mc, ap); pct > 60 {
		t.Errorf("APNIC covers %.0f%% of MS clients ASes; should miss most", pct)
	}
	// Each technique's ASes are nearly all in Microsoft clients (97-98%).
	if pct := m.Pct(cp, mc); pct < 85 {
		t.Errorf("only %.0f%% of cache probing ASes in MS clients", pct)
	}
	if pct := m.Pct(dl, mc); pct < 85 {
		t.Errorf("only %.0f%% of DNS logs ASes in MS clients", pct)
	}
}

func TestShapeTable1(t *testing.T) {
	r := tinyRun(t)
	m := r.Table1()
	idx := map[string]int{}
	for i, n := range m.Names {
		idx[n] = i
	}
	cp, dl, mc, mr := idx[NameCacheProbe], idx[NameDNSLogs], idx[NameMSClients], idx[NameMSResolvers]

	// Cache probing's upper bound is the biggest prefix set (paper: 9.7M
	// vs 8.8M for MS clients); DNS logs is tiny (resolver /24s only).
	if m.Size(cp) <= m.Size(dl) {
		t.Errorf("cache probing (%d) should dwarf DNS logs (%d)", m.Size(cp), m.Size(dl))
	}
	if m.Size(dl) >= m.Size(mc)/2 {
		t.Errorf("DNS logs (%d) should be far smaller than MS clients (%d)", m.Size(dl), m.Size(mc))
	}
	// DNS logs prefixes are high precision vs MS resolvers (paper: 60.6%
	// of DNS logs prefixes in MS resolvers, 95.5% in MS clients).
	if pct := m.Pct(dl, mr); pct < 30 {
		t.Errorf("DNS logs ∩ MS resolvers only %.0f%%", pct)
	}
}

func TestShapeTable2(t *testing.T) {
	r := tinyRun(t)
	rows := r.Table2()
	if len(rows) < 3 {
		t.Fatalf("only %d Table 2 rows", len(rows))
	}
	overall := rows[len(rows)-1]
	if overall.Domain != "Overall" || overall.Total == 0 {
		t.Fatalf("bad overall row: %+v", overall)
	}
	exact, within2, within4 := overall.Frac()
	if exact < 0.75 {
		t.Errorf("exact scope match %.2f, paper ~0.90", exact)
	}
	if within2 < exact || within4 < within2 {
		t.Error("scope-diff fractions not monotone")
	}
	if within4 < 0.9 {
		t.Errorf("within-4 fraction %.2f, paper ~0.99", within4)
	}
}

func TestShapeTable5(t *testing.T) {
	r := tinyRun(t)
	rows := r.Table5()
	byDomain := map[string]Table5Row{}
	for _, row := range rows {
		byDomain[row.Domain] = row
	}
	g := byDomain["www.google.com"]
	w := byDomain["www.wikipedia.org"]
	if g.TotalPrefixes == 0 || w.TotalPrefixes == 0 {
		t.Fatalf("missing domains in Table 5: %+v", rows)
	}
	// Google discovers the most prefixes; Wikipedia far fewer (coarse
	// scopes) but relatively many ASes.
	if w.TotalPrefixes >= g.TotalPrefixes {
		t.Errorf("wikipedia prefixes (%d) >= google (%d)", w.TotalPrefixes, g.TotalPrefixes)
	}
	for _, row := range rows {
		if row.UniquePrefixes > row.TotalPrefixes || row.UniqueASes > row.TotalASes {
			t.Errorf("%s: unique exceeds total", row.Domain)
		}
	}
}

func TestShapeFigures(t *testing.T) {
	r := tinyRun(t)

	pops, countryActive := r.Figure1()
	if len(pops) == 0 || len(countryActive) == 0 {
		t.Error("Figure 1 empty")
	}

	f2 := r.Figure2()
	for pop, d := range f2 {
		if d.CDF.Len() > 0 && (d.RadiusKm <= 0 || d.RadiusKm > 5524) {
			t.Errorf("Figure 2 %s radius %v", pop, d.RadiusKm)
		}
	}

	f3 := r.Figure3()
	if len(f3) == 0 {
		t.Fatal("Figure 3 empty")
	}
	var bigCovered, n float64
	for _, c := range f3 {
		if c.CoveredFrac < 0 || c.CoveredFrac > 1 {
			t.Errorf("Figure 3 %s coverage %v", c.Country, c.CoveredFrac)
		}
		if c.Users > 0 {
			bigCovered += c.CoveredFrac
			n++
		}
	}
	if bigCovered/n < 0.5 {
		t.Errorf("mean country coverage %.2f; paper finds most eyeballs in most countries", bigCovered/n)
	}

	bounds, lower, upper := r.Figure4()
	if len(bounds) == 0 {
		t.Fatal("Figure 4 empty")
	}
	for _, b := range bounds {
		if b.LowerFrac() > b.UpperFrac()+1e-9 {
			t.Errorf("AS%d lower %.3f > upper %.3f", b.ASN, b.LowerFrac(), b.UpperFrac())
		}
	}
	if lower.Quantile(0.5) > upper.Quantile(0.5) {
		t.Error("median lower bound above median upper bound")
	}

	f5 := r.Figure5()
	counts := map[PoPClass]int{}
	for _, cls := range f5 {
		counts[cls]++
	}
	if counts[PoPProbedVerified] < 15 {
		t.Errorf("only %d probed+verified PoPs, want ~22", counts[PoPProbedVerified])
	}
	if counts[PoPUnprobedUnverified] < 10 {
		t.Errorf("only %d unprobed+unverified PoPs, want ~18", counts[PoPUnprobedUnverified])
	}

	f6 := r.Figure6()
	if len(f6) != 3 {
		t.Errorf("Figure 6 has %d methods", len(f6))
	}
	f7 := r.Figure7()
	for name, cdf := range f7 {
		// Differences concentrate near zero (paper: within 1e-5 for 90%
		// of ASes at Internet scale; the tiny world is coarser).
		span := cdf.Quantile(0.95) - cdf.Quantile(0.05)
		if span > 0.5 {
			t.Errorf("Figure 7 %s: differences span %v; methods should roughly agree", name, span)
		}
	}
}

func TestHeadlineStats(t *testing.T) {
	r := tinyRun(t)
	h := r.ComputeHeadline()

	check := func(name string, got, lo, hi float64) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s = %.1f%%, want in [%v, %v]", name, got, lo, hi)
		}
	}
	// Bands are wide: the tiny world is noisy; the medium-scale
	// cmd/experiments run is the real comparison.
	check("UnionASVolumePct", h.UnionASVolumePct, 70, 100)
	check("UnionPrefixVolumePct", h.UnionPrefixVolumePct, 55, 100)
	check("ScopePrecisionPct", h.ScopePrecisionPct, 80, 100)
	check("DNSLogsPrecisionPct", h.DNSLogsPrecisionPct, 70, 100)
	check("ECSRecallPct", h.ECSRecallPct, 50, 100)
	check("DNSOverHTTPPct", h.DNSOverHTTPPct, 80, 100)
	check("HTTPOverDNSPct", h.HTTPOverDNSPct, 20, 100)
	check("MSClientsASCoveragePct", h.MSClientsASCoveragePct, 80, 100)
	if h.NewASesVsAPNIC <= 0 {
		t.Error("techniques found no ASes beyond APNIC")
	}
	// The union should beat APNIC on volume coverage (98.8 vs 92).
	if h.UnionASVolumePct <= h.APNICASVolumePct {
		t.Errorf("union volume %.1f%% <= APNIC %.1f%%", h.UnionASVolumePct, h.APNICASVolumePct)
	}
}

func TestBRootCheck(t *testing.T) {
	r := tinyRun(t)
	s2020, s2021, err := r.BRootCheck()
	if err != nil {
		t.Fatal(err)
	}
	if s2020 <= 0 || s2021 <= 0 {
		t.Fatalf("shares: 2020=%v 2021=%v", s2020, s2021)
	}
	// §3.2.2: the 2021 share is roughly 30% of the 2020 share. Junk volume
	// is unchanged, so the ratio is a bit above the raw 0.3 scaling.
	ratio := s2021 / s2020
	t.Logf("B-root Chromium share: 2020 %.3f, 2021 %.3f, ratio %.3f", s2020, s2021, ratio)
	if ratio < 0.2 || ratio > 0.55 {
		t.Errorf("2021/2020 Chromium share ratio = %.2f, want ~0.3-0.5", ratio)
	}
	if s2020 >= 1 || s2021 >= s2020 {
		t.Errorf("share ordering wrong: 2020=%.2f 2021=%.2f", s2020, s2021)
	}
}

// BRootCheck reproduces §3.2.2's September 2021 verification against B
// root: generate B-root traces for the 2020 DITL era and for late 2021
// (after Chromium cut its interception-probe volume to ~30%), and report
// each era's Chromium share of all B-root queries.
func (r *Results) BRootCheck() (share2020, share2021 float64, err error) {
	gen := roots.NewGenerator(r.Sys.Model)
	share := func(scale float64) (float64, error) {
		bufs := map[string][]byte{}
		_, err := gen.Generate(roots.GenConfig{
			Start:         r.Sys.Clock.Now(),
			Duration:      6 * time.Hour,
			ChromiumScale: scale,
			Letters:       []string{"B"},
		}, func(letter string) (io.WriteCloser, error) {
			return &memSink{key: letter, out: bufs}, nil
		})
		if err != nil {
			return 0, err
		}
		// Pass 1: per-name occurrence counts (repeated names are junk or
		// DGA noise, not Chromium randomness).
		tr, err := roots.NewReader(bytes.NewReader(bufs["B"]))
		if err != nil {
			return 0, err
		}
		seen := map[string]int{}
		for {
			rec, err := tr.Next()
			if err != nil {
				break
			}
			if isChromiumish(rec.QName) {
				seen[rec.QName]++
			}
		}
		// Pass 2: weight-accumulate singleton matches vs all queries.
		tr, err = roots.NewReader(bytes.NewReader(bufs["B"]))
		if err != nil {
			return 0, err
		}
		var matched, total float64
		for {
			rec, err := tr.Next()
			if err != nil {
				break
			}
			total += float64(rec.Weight)
			if isChromiumish(rec.QName) && seen[rec.QName] == 1 {
				matched += float64(rec.Weight)
			}
		}
		if total == 0 {
			return 0, nil
		}
		return matched / total, nil
	}
	if share2020, err = share(1.0); err != nil {
		return 0, 0, err
	}
	if share2021, err = share(0.3); err != nil {
		return 0, 0, err
	}
	return share2020, share2021, nil
}

// memSink buffers one letter's trace in memory.
type memSink struct {
	key string
	out map[string][]byte
	buf bytes.Buffer
}

func (m *memSink) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memSink) Close() error {
	m.out[m.key] = m.buf.Bytes()
	return nil
}

// isChromiumish applies the detector's label pattern (7-15 lowercase
// letters, single label).
func isChromiumish(name string) bool {
	if len(name) < 7 || len(name) > 15 {
		return false
	}
	for i := 0; i < len(name); i++ {
		if name[i] < 'a' || name[i] > 'z' {
			return false
		}
	}
	return true
}

// TestRunDeterministic: identical configs produce identical evaluations —
// the reproducibility guarantee the whole module is built around.
func TestRunDeterministic(t *testing.T) {
	cfg := DefaultConfig(randx.Seed(777), world.ScaleTiny)
	cfg.CampaignDuration = 12 * time.Hour
	cfg.Passes = 2
	cfg.TraceDuration = 6 * time.Hour
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Campaign.ProbesSent != b.Campaign.ProbesSent {
		t.Errorf("probes: %d vs %d", a.Campaign.ProbesSent, b.Campaign.ProbesSent)
	}
	if !sameSet24(a.PfxCacheProbe.Set, b.PfxCacheProbe.Set) {
		t.Error("cacheprobe prefix sets differ")
	}
	if !sameSet24(a.PfxDNSLogs.Set, b.PfxDNSLogs.Set) {
		t.Error("dnslogs prefix sets differ")
	}
	ha, hb := a.ComputeHeadline(), b.ComputeHeadline()
	if ha != hb {
		t.Errorf("headlines differ:\n%+v\n%+v", ha, hb)
	}
	// And a different seed genuinely differs.
	cfg.Seed = 778
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sameSet24(c.PfxCacheProbe.Set, a.PfxCacheProbe.Set) {
		t.Error("different seeds produced identical results")
	}
}
