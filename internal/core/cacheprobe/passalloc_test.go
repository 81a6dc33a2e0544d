package cacheprobe_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/metrics"
	"clientmap/internal/sim"
	"clientmap/internal/world"
)

// passFixture is a tiny calibrated campaign with its probe plan, ready
// for probing passes.
type passFixture struct {
	prober *cacheprobe.Prober
	pops   map[string]*cacheprobe.Vantage
	asg    *cacheprobe.Assignments
	camp   *cacheprobe.Campaign
	start  time.Time
	tasks  int
}

func newPassFixture(tb testing.TB) *passFixture {
	tb.Helper()
	return newMeteredPassFixture(tb, nil, 0)
}

// newMeteredPassFixture builds the fixture with the system instrumented
// into reg (nil leaves it uninstrumented) and the prober's pool at
// workers goroutines (0 = GOMAXPROCS).
func newMeteredPassFixture(tb testing.TB, reg *metrics.Registry, workers int) *passFixture {
	tb.Helper()
	s, err := sim.New(sim.Config{Seed: 101, Scale: world.ScaleTiny, Metrics: reg})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := s.ProberConfig()
	cfg.Workers = workers
	cfg.Metrics = reg
	cfg.Duration = 24 * time.Hour
	cfg.Passes = 1 << 20 // room for one pass per benchmark iteration
	p := s.Prober(cfg)
	ctx := context.Background()
	f := &passFixture{prober: p, camp: cacheprobe.NewCampaign(), start: s.Clock.Now()}
	if f.pops, err = p.DiscoverPoPs(ctx); err != nil {
		tb.Fatal(err)
	}
	if err := p.PreScan(ctx, f.camp); err != nil {
		tb.Fatal(err)
	}
	p.Calibrate(ctx, f.pops, f.camp)
	f.asg = p.BuildAssignments(f.pops, s.PoPCoords(), f.camp)
	for pi := 0; pi < f.asg.NumPoPs(); pi++ {
		f.tasks += f.asg.NumTasks(pi)
	}
	if f.tasks == 0 {
		tb.Fatal("tiny campaign assigned no probe tasks")
	}
	return f
}

func (f *passFixture) pass(tb testing.TB, k int) {
	if _, err := f.prober.ProbePassDelta(context.Background(), f.pops, f.asg, k, f.start, f.camp); err != nil {
		tb.Fatal(err)
	}
}

// maxPassBytesPerTask bounds what one ProbePassDelta allocates per probe
// task. A task's outcome lives in one 14-byte result slot that the fold
// reads in place, holding no timestamp, response scope or retry account
// (the fold derives the first two and the account is a local of the
// task loop); the rest is the pass's hits and ledgers: 40 bytes per task
// on this fixture in all. A 112-byte slot carrying those fields measured
// 143, and routing the pass through ProbeShard and GatherPass, which copy
// every slot into a ShardTaskResult and back into a second slot array,
// about 700.
const maxPassBytesPerTask = 64

// raceEnabled is set under the race detector, whose sync.Pool drops
// pooled messages at random: allocation counts then measure the
// detector, not the pass.
var raceEnabled bool

// TestProbePassDeltaAllocsPerTask guards the one-slot-per-task layout:
// a steady pass must not copy its per-task results.
func TestProbePassDeltaAllocsPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := newPassFixture(t)
	f.pass(t, 0) // pass 0 fills the lazily built memo tables
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f.pass(t, 1)
	runtime.ReadMemStats(&after)
	perTask := float64(after.TotalAlloc-before.TotalAlloc) / float64(f.tasks)
	t.Logf("%d tasks, %.0f bytes allocated per task", f.tasks, perTask)
	if perTask > maxPassBytesPerTask {
		t.Errorf("ProbePassDelta allocated %.0f bytes per task, want <= %d", perTask, maxPassBytesPerTask)
	}
}

// BenchmarkProbePassDelta times one steady probing pass of the tiny
// campaign end to end: execution into the result slots and the fold. It
// reports tasks/s and the bytes a pass allocates per task (B/task), the
// figure TestProbePassDeltaAllocsPerTask bounds.
func BenchmarkProbePassDelta(b *testing.B) {
	f := newPassFixture(b)
	f.pass(b, 0)
	b.ReportAllocs()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.pass(b, i+1)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m)
	b.ReportMetric(float64(f.tasks)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
	b.ReportMetric(float64(m.TotalAlloc-before)/float64(f.tasks)/float64(b.N), "B/task")
}
