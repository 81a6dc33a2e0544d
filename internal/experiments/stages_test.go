package experiments

import (
	"fmt"
	"slices"
	"syscall"
	"testing"
	"time"

	"clientmap/internal/churn"
	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/faults"
	"clientmap/internal/randx"
	"clientmap/internal/sim"
	"clientmap/internal/world"
)

// BenchmarkDNSLogs is the DITL stage's ladder rung: runDNSLogs (trace
// generation for the crawled letters, then the two-pass crawl) over a
// small world. It reports dnslogs.cpu_ms, the process CPU time one stage
// run costs, which is what the stage takes from the probe chain's cores
// when the two run side by side.
func BenchmarkDNSLogs(b *testing.B) {
	cfg := DefaultConfig(randx.Seed(2021), world.ScaleSmall)
	sys, err := sim.New(sim.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		b.Fatal(err)
	}
	campEnd := campStart.Add(cfg.CampaignDuration)
	b.ResetTimer()
	before := cpuTime(b)
	for i := 0; i < b.N; i++ {
		if _, err := runDNSLogs(cfg, sys, campEnd); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64((cpuTime(b)-before).Microseconds())/1e3/float64(b.N), "dnslogs.cpu_ms")
}

// BenchmarkStreamHour is the churned stream hour's ladder rung: six
// hours of the benchmark's small stream (seed 2021, its churn, faults
// and retries), whose last hour applies the first realloc tick. It
// reports stream.hour_ms, that hour's stage time, and
// stream.quiet_hour_ms, the median of hours 1–4, which no event touches.
func BenchmarkStreamHour(b *testing.B) {
	ch, err := churn.Parse("realloc=3@5h,drift=0.15@9h,pop=fra@6h+5h,chromium=off@12h")
	if err != nil {
		b.Fatal(err)
	}
	fl, err := faults.Parse("loss=0.02,jitter=50ms")
	if err != nil {
		b.Fatal(err)
	}
	rt, err := cacheprobe.ParseRetry("attempts=3,timeout=2s,backoff=100ms")
	if err != nil {
		b.Fatal(err)
	}
	const hours = 6
	var churned, quiet time.Duration
	for i := 0; i < b.N; i++ {
		took := make([]time.Duration, hours)
		cfg := StreamConfig{Seed: randx.Seed(2021), Scale: world.ScaleSmall, Hours: hours, Churn: ch, Faults: fl, Retry: rt,
			Log: func(format string, args ...any) {
				var h int
				var d string
				if _, err := fmt.Sscanf(fmt.Sprintf(format, args...), "stage "+StageStreamHour+"%d: done in %s", &h, &d); err == nil {
					took[h], _ = time.ParseDuration(d)
				}
			}}
		if _, err := RunStream(cfg); err != nil {
			b.Fatal(err)
		}
		mid := slices.Clone(took[1 : hours-1])
		slices.Sort(mid)
		churned += took[hours-1]
		quiet += mid[len(mid)/2]
	}
	b.ReportMetric(float64(churned.Microseconds())/1e3/float64(b.N), "stream.hour_ms")
	b.ReportMetric(float64(quiet.Microseconds())/1e3/float64(b.N), "stream.quiet_hour_ms")
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
