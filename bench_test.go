// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact) plus ablations of the methodology's design
// choices. Each benchmark reports domain metrics alongside timings, so
// `go test -bench=.` doubles as the experiment regeneration harness at
// test scale; cmd/experiments runs the same pipeline at larger scales.
package clientmap

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/core/dnslogs"
	"clientmap/internal/dnsnet"
	"clientmap/internal/dnswire"
	"clientmap/internal/experiments"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
	"clientmap/internal/roots"
	"clientmap/internal/sim"
	"clientmap/internal/world"
)

var (
	benchOnce sync.Once
	benchRes  *experiments.Results
	benchErr  error
)

// benchResults runs the full evaluation once per benchmark binary.
func benchResults(b *testing.B) *experiments.Results {
	b.Helper()
	benchOnce.Do(func() {
		benchRes, benchErr = experiments.Run(experiments.DefaultConfig(randx.Seed(2021), world.ScaleTiny))
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRes
}

func BenchmarkTable1PrefixOverlap(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	var cells int
	for i := 0; i < b.N; i++ {
		m := r.Table1()
		cells = len(m.Names) * len(m.Names)
	}
	b.ReportMetric(float64(cells), "cells")
	b.ReportMetric(float64(r.PfxCacheProbe.Len()), "cacheprobe_24s")
}

func BenchmarkTable2ScopeValidation(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	var exact float64
	for i := 0; i < b.N; i++ {
		rows := r.Table2()
		e, _, _ := rows[len(rows)-1].Frac()
		exact = e
	}
	b.ReportMetric(exact*100, "exact_pct") // paper: ~90
}

func BenchmarkTable3ASOverlap(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	var union int
	for i := 0; i < b.N; i++ {
		m := r.Table3()
		union = m.Size(2)
	}
	b.ReportMetric(float64(union), "union_ases")
}

func BenchmarkTable4VolumeOverlap(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	var pct float64
	for i := 0; i < b.N; i++ {
		m := r.Table4()
		pct = m.Pct[2][2] // MS clients volume in union ASes; paper: 98.8
	}
	b.ReportMetric(pct, "msclients_in_union_pct")
}

func BenchmarkTable5PerDomain(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(r.Table5())
	}
	b.ReportMetric(float64(rows), "domains")
}

func BenchmarkFigure1PrefixDensity(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	var pops int
	for i := 0; i < b.N; i++ {
		p, _ := r.Figure1()
		pops = len(p)
	}
	b.ReportMetric(float64(pops), "probed_pops") // paper: 22
}

func BenchmarkFigure2ServiceRadius(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	var radius float64
	for i := 0; i < b.N; i++ {
		for _, d := range r.Figure2() {
			radius = d.RadiusKm
		}
	}
	b.ReportMetric(radius, "radius_km") // paper: 478-3273 for the shown PoPs
}

func BenchmarkFigure3CountryCoverage(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		cov := r.Figure3()
		var sum float64
		for _, c := range cov {
			sum += c.CoveredFrac
		}
		mean = sum / float64(len(cov))
	}
	b.ReportMetric(mean*100, "mean_coverage_pct")
}

func BenchmarkFigure4ASPrefixFraction(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	var medLo, medHi float64
	for i := 0; i < b.N; i++ {
		_, lo, hi := r.Figure4()
		medLo, medHi = lo.Quantile(0.5), hi.Quantile(0.5)
	}
	b.ReportMetric(medLo, "median_lower") // paper: median between 0.25...
	b.ReportMetric(medHi, "median_upper") // ...and 1.00
}

func BenchmarkFigure5PoPCoverage(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	var probed int
	for i := 0; i < b.N; i++ {
		counts := map[experiments.PoPClass]int{}
		for _, cls := range r.Figure5() {
			counts[cls]++
		}
		probed = counts[experiments.PoPProbedVerified]
	}
	b.ReportMetric(float64(probed), "probed_verified") // paper: 22
}

func BenchmarkFigure6RelativeVolume(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	var methods int
	for i := 0; i < b.N; i++ {
		methods = len(r.Figure6())
	}
	b.ReportMetric(float64(methods), "methods")
}

func BenchmarkFigure7VolumeDifference(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	var span float64
	for i := 0; i < b.N; i++ {
		for _, cdf := range r.Figure7() {
			span = cdf.Quantile(0.95) - cdf.Quantile(0.05)
		}
	}
	b.ReportMetric(span, "p5_p95_span") // paper: tiny (1e-5 at 90%)
}

func BenchmarkHeadlineStats(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	var h experiments.Headline
	for i := 0; i < b.N; i++ {
		h = r.ComputeHeadline()
	}
	b.ReportMetric(h.UnionASVolumePct, "union_as_volume_pct")   // paper: 98.8
	b.ReportMetric(h.UnionPrefixVolumePct, "union_pfx_vol_pct") // paper: 95.2
	b.ReportMetric(h.ScopePrecisionPct, "scope_precision_pct")  // paper: 99.1
}

// --- Ablations of the methodology's design choices (DESIGN.md §5). ---

func benchSystem(b *testing.B) *sim.System {
	b.Helper()
	s, err := sim.New(sim.Config{Seed: 99, Scale: world.ScaleTiny})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkAblationScopePreScan quantifies §3.1.1's probe-reduction trick:
// pre-scanning authoritative response scopes shrinks the probing universe
// versus querying every /24.
func BenchmarkAblationScopePreScan(b *testing.B) {
	s := benchSystem(b)
	cfg := s.ProberConfig()
	total24 := 0
	for _, blk := range cfg.Universe {
		total24 += blk.NumSlash24s()
	}
	var scopes, queries int
	for i := 0; i < b.N; i++ {
		camp := &cacheprobe.Campaign{ScopesByDomain: make(map[string][]netx.Prefix)}
		p := s.Prober(cfg)
		if err := p.PreScan(context.Background(), camp); err != nil {
			b.Fatal(err)
		}
		scopes = 0
		for _, sc := range camp.ScopesByDomain {
			scopes += len(sc)
		}
		queries = camp.PreScanQueries
	}
	b.ReportMetric(float64(total24*len(cfg.Domains)), "naive_probes")
	b.ReportMetric(float64(scopes), "scope_probes")
	b.ReportMetric(float64(queries), "prescan_queries")
	b.ReportMetric(float64(total24*len(cfg.Domains))/float64(scopes), "reduction_x")
}

// BenchmarkAblationServiceRadius quantifies the per-PoP service radii: how
// many (PoP, scope) probe assignments per-PoP radii produce versus using
// the maximum radius everywhere (the paper: 2.4M vs 4.4M per PoP).
func BenchmarkAblationServiceRadius(b *testing.B) {
	r := benchResults(b)
	var perPoP, maxRadius int
	for i := 0; i < b.N; i++ {
		perPoP, maxRadius = 0, 0
		for _, cal := range r.Campaign.PoPs {
			perPoP += cal.Assigned
		}
		// Re-assign with the max radius: approximate by scaling each
		// PoP's count by the area ratio bound; the exact recomputation
		// lives in the campaign, so here we recount scopes within the cap.
		maxRadius = len(r.Campaign.PoPs) * totalScopes(r)
	}
	b.ReportMetric(float64(perPoP), "assigned_with_radii")
	b.ReportMetric(float64(maxRadius), "assigned_upper_bound")
}

func totalScopes(r *experiments.Results) int {
	n := 0
	for _, sc := range r.Campaign.ScopesByDomain {
		n += len(sc)
	}
	return n
}

// probeCampaign runs every probing stage in order, as the campaign chain
// does: DiscoverPoPs → PreScan → Calibrate → BuildAssignments →
// ProbePassDelta×cfg.Passes → FinishProbing.
func probeCampaign(s *sim.System, cfg cacheprobe.Config) (*cacheprobe.Campaign, error) {
	ctx, p, camp := context.Background(), s.Prober(cfg), cacheprobe.NewCampaign()
	pops, err := p.DiscoverPoPs(ctx)
	if err == nil {
		err = p.PreScan(ctx, camp)
	}
	if err != nil {
		return nil, err
	}
	p.Calibrate(ctx, pops, camp)
	start := cfg.Clock.Now()
	asg := p.BuildAssignments(pops, s.PoPCoords(), camp)
	for pass := 0; pass < cfg.Passes && err == nil; pass++ {
		_, err = p.ProbePassDelta(ctx, pops, asg, pass, start, camp)
	}
	p.FinishProbing(start)
	return camp, err
}

// BenchmarkAblationRedundancy measures recall with 1 vs 5 redundant probes
// per (PoP, prefix, domain): Google keeps several independent cache pools
// per site, so one probe sees only one pool.
func BenchmarkAblationRedundancy(b *testing.B) {
	for _, red := range []int{1, 5} {
		b.Run(map[int]string{1: "single", 5: "paper5"}[red], func(b *testing.B) {
			var scopes int
			for i := 0; i < b.N; i++ {
				s := benchSystem(b)
				cfg := s.ProberConfig()
				cfg.Duration = 12 * time.Hour
				cfg.Passes = 2
				cfg.Redundancy = red
				camp, err := probeCampaign(s, cfg)
				if err != nil {
					b.Fatal(err)
				}
				scopes = len(camp.ActiveScopes())
			}
			b.ReportMetric(float64(scopes), "active_scopes")
		})
	}
}

// BenchmarkAblationUDPvsTCP measures the drop rate of repeated probing
// over each transport at the paper's 50 probes/second rate: the reason
// the campaign uses DNS over TCP. The probes advance the simulated clock,
// so the limiters see the real pacing regardless of wall-clock speed.
func BenchmarkAblationUDPvsTCP(b *testing.B) {
	for _, transport := range []string{"udp", "tcp"} {
		b.Run(transport, func(b *testing.B) {
			s := benchSystem(b)
			handler := s.Google.UDP()
			if transport == "tcp" {
				handler = s.Google.TCP()
			}
			v := s.Vantages[0]
			s.Google.RegisterVantage(v.Addr, 0)
			scope := netx.MustParsePrefix("100.99.0.0/24")
			dropped := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Clock.Advance(20 * time.Millisecond) // 50 probes/second
				q := dnswire.NewQuery(uint16(i+1), "www.google.com", dnswire.TypeA).WithECS(scope)
				q.RecursionDesired = false
				if handler.ServeDNS(context.Background(), v.Addr, q) == nil {
					dropped++
				}
			}
			b.ReportMetric(100*float64(dropped)/float64(b.N), "dropped_pct")
		})
	}
}

// BenchmarkAblationCollisionThreshold sweeps the Chromium collision
// threshold: too low discards genuine Chromium names that collide with
// junk; too high admits DGA/misconfiguration noise.
func BenchmarkAblationCollisionThreshold(b *testing.B) {
	dir := b.TempDir()
	s := benchSystem(b)
	gen := roots.NewGenerator(s.Model)
	_, err := gen.Generate(roots.GenConfig{Start: s.Clock.Now(), Duration: 12 * time.Hour, Letters: roots.DITLLetters},
		func(letter string) (io.WriteCloser, error) {
			return os.Create(filepath.Join(dir, letter))
		})
	if err != nil {
		b.Fatal(err)
	}
	open := func(letter string) (io.ReadCloser, error) {
		return os.Open(filepath.Join(dir, letter))
	}
	for _, threshold := range []int{2, 7, 1000} {
		b.Run(map[int]string{2: "strict2", 7: "paper7", 1000: "off"}[threshold], func(b *testing.B) {
			var res *dnslogs.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = dnslogs.Crawl(dnslogs.Config{DailyThreshold: threshold}, open)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.ResolverCounts)), "resolvers")
			b.ReportMetric(float64(res.FilteredNames), "filtered_names")
		})
	}
}

// BenchmarkCampaignParallel measures the probing campaign fully sequential
// (Workers=1) versus with one worker per CPU, over identical worlds — the
// speedup of the parallel probing engine. The two variants produce
// bit-identical campaigns (see experiments.TestParallelDeterminism), so
// any throughput difference is pure scheduling. The end-to-end benchmark
// (cmd/bench, BENCHMARK.json) is where campaign throughput is recorded.
func BenchmarkCampaignParallel(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{fmt.Sprintf("workers=%d", runtime.NumCPU()), runtime.NumCPU()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			probes := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := benchSystem(b)
				cfg := s.ProberConfig()
				cfg.Duration = 24 * time.Hour
				cfg.Passes = 3
				cfg.Workers = bc.workers
				b.StartTimer()
				camp, err := probeCampaign(s, cfg)
				if err != nil {
					b.Fatal(err)
				}
				probes += camp.ProbesSent
			}
			b.ReportMetric(float64(probes)/b.Elapsed().Seconds(), "probes/sec")
			b.ReportMetric(float64(bc.workers), "workers")
		})
	}
}

// BenchmarkFullEvaluation measures the end-to-end pipeline at test scale.
func BenchmarkFullEvaluation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultConfig(randx.Seed(uint64(i)+5), world.ScaleTiny)
		cfg.CampaignDuration = 24 * time.Hour
		cfg.Passes = 2
		if _, err := experiments.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoopbackExchange measures a full DNS exchange over real UDP
// sockets (the live-probing path).
func BenchmarkLoopbackExchange(b *testing.B) {
	s := benchSystem(b)
	srv := dnsnet.NewServer(s.Auth)
	addr, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl := &dnsnet.UDPClient{Timeout: 2 * time.Second}
	q := dnswire.NewQuery(1, "www.google.com", dnswire.TypeA).WithECS(netx.MustParsePrefix("1.2.3.0/24"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ID = uint16(i + 1)
		if _, err := cl.Exchange(context.Background(), addr.String(), q); err != nil {
			b.Fatal(err)
		}
	}
}
