package experiments

import (
	"syscall"
	"testing"
	"time"

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

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
