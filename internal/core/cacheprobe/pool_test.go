package cacheprobe_test

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/dnsnet"
	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
	"clientmap/internal/sim"
	"clientmap/internal/world"
)

// inflight tracks the exchanges in flight across every transport wrapped
// by countingExchanger, and their peak.
type inflight struct {
	cur, peak atomic.Int64
}

// takePeak returns the peak since the last call and starts a new window.
func (c *inflight) takePeak() int64 { return c.peak.Swap(0) }

type countingExchanger struct {
	c     *inflight
	inner dnsnet.Exchanger
}

// Exchange counts itself in flight for the duration of the inner
// exchange. The yield inside that window hands the processor to any
// other runnable prober goroutine, so a stage running more goroutines
// than its bound shows them as overlapping exchanges.
func (e countingExchanger) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	n := e.c.cur.Add(1)
	defer e.c.cur.Add(-1)
	for p := e.c.peak.Load(); n > p && !e.c.peak.CompareAndSwap(p, n); p = e.c.peak.Load() {
	}
	runtime.Gosched()
	return e.inner.Exchange(ctx, server, q)
}

// TestStagesBoundGoroutinesByWorkers: Config.Workers is the most
// goroutines a campaign stage runs, however many PoPs, samples or units
// it spans — one pool per stage, never a PoP × worker nesting. With far
// more processors than workers, each stage's peak of concurrent
// exchanges must stay within the bound.
func TestStagesBoundGoroutinesByWorkers(t *testing.T) {
	const workers = 2
	prev := runtime.GOMAXPROCS(16)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	s, err := sim.New(sim.Config{Seed: 303, Scale: world.ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	var c inflight
	vantages := append([]cacheprobe.Vantage(nil), s.Vantages()...)
	for i := range vantages {
		vantages[i].Exchanger = countingExchanger{&c, vantages[i].Exchanger}
	}
	auth := cacheprobe.Authoritative{
		Exchanger: countingExchanger{&c, s.Net.Client(netx.AddrFrom4(100, 64, 255, 1))},
		Server:    sim.AuthServer,
	}
	cfg := s.ProberConfig()
	cfg.Duration = 24 * time.Hour
	cfg.Passes = 2
	cfg.Workers = workers
	p := cacheprobe.NewProber(cfg, vantages, auth)

	ctx := context.Background()
	start := cfg.Clock.Now()
	pops, err := p.DiscoverPoPs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		peak := c.takePeak()
		t.Logf("%s: peak %d exchanges in flight", stage, peak)
		if peak < 1 || peak > workers {
			t.Errorf("%s: peak %d exchanges in flight, want 1..%d (Workers)", stage, peak, workers)
		}
	}
	c.takePeak()
	camp := cacheprobe.NewCampaign()
	if err := p.PreScan(ctx, camp); err != nil {
		t.Fatal(err)
	}
	check("PreScan")
	p.Calibrate(ctx, pops, camp)
	check("Calibrate")
	asg := p.BuildAssignments(pops, s.PoPCoords(), camp)
	if _, err := p.ProbePassDelta(ctx, pops, asg, 0, start, camp); err != nil {
		t.Fatal(err)
	}
	check("ProbePassDelta")
}
