package cacheprobe_test

import (
	"context"
	"fmt"
	"testing"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/metrics"
)

// TestProbePathLedgerMatchesPass checks the three counters every probe
// bumps — tallied per probe batch and flushed when the batch ends —
// against the pass's own accounting: each pass's ledger delta must count
// every probe it sent once at the vantage transport and once at the
// Google front end, and one front-end cache hit per hit it recorded. A
// tally flushed outside the pass's snapshot window, lost or flushed twice
// breaks the equalities, whatever the worker count or shard split.
func TestProbePathLedgerMatchesPass(t *testing.T) {
	ctx := context.Background()
	check := func(t *testing.T, pass int, d *cacheprobe.PassDelta) {
		t.Helper()
		if d.ProbesSent == 0 || len(d.Hits) == 0 {
			t.Fatalf("pass %d sent %d probes with %d hits; the check needs both", pass, d.ProbesSent, len(d.Hits))
		}
		t.Logf("pass %d: %d probes sent, %d hits", pass, d.ProbesSent, len(d.Hits))
		for _, key := range []string{"dnsnet/vantage/queries", "gpdns/queries"} {
			if got := d.Metrics[key]; got != int64(d.ProbesSent) {
				t.Errorf("pass %d: %s = %d, want ProbesSent = %d", pass, key, got, d.ProbesSent)
			}
		}
		if got := d.Metrics["gpdns/cache_hits"]; got != int64(len(d.Hits)) {
			t.Errorf("pass %d: gpdns/cache_hits = %d, want len(Hits) = %d", pass, got, len(d.Hits))
		}
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			f := newMeteredPassFixture(t, metrics.NewRegistry(), workers)
			for k := 0; k < 2; k++ {
				d, err := f.prober.ProbePassDelta(ctx, f.pops, f.asg, k, f.start, f.camp)
				if err != nil {
					t.Fatal(err)
				}
				check(t, k, d)
			}
		})
	}
	t.Run("shards=3", func(t *testing.T) {
		f := newMeteredPassFixture(t, metrics.NewRegistry(), 2)
		for k := 0; k < 2; k++ {
			var shards []*cacheprobe.ShardResult
			for _, units := range cacheprobe.PartitionPass(f.asg, k, 3) {
				shards = append(shards, f.prober.ProbeShard(ctx, f.pops, f.asg, k, f.start, f.camp, units))
			}
			d, err := f.prober.GatherPass(f.pops, f.asg, k, f.start, f.camp, shards)
			if err != nil {
				t.Fatal(err)
			}
			check(t, k, d)
		}
	})
}
