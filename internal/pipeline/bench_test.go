package pipeline

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/metrics"
	"clientmap/internal/netx"
	"clientmap/internal/snapshot"
)

// benchPassDelta is a medium campaign pass's worth of evidence: 46,000
// hits over five domains and 22 PoPs plus per-PoP assignment sizes and
// ledger counters, which checkpoints to about the 2.0 MB a medium pass
// writes.
func benchPassDelta() *cacheprobe.PassDelta {
	at := time.Unix(1_600_000_000, 0).UTC()
	d := &cacheprobe.PassDelta{
		Base: snapshot.HashBytes(nil), Pass: 3, Passes: 9, PassTime: at, ProbesSent: 900_000,
		Assigned: map[string]int{}, Metrics: metrics.Ledger{},
	}
	for p := 0; p < 22; p++ {
		d.Assigned[fmt.Sprintf("pop-%d", p)] = 33_000
		d.Metrics[fmt.Sprintf("cacheprobe/pop/pop-%d/probes", p)] = 41_000
	}
	for i := 0; i < 46_000; i++ {
		scope := netx.PrefixFrom(netx.Addr(0x0a000000+uint32(i*7919%(1<<20))<<8), 24)
		d.Hits = append(d.Hits, cacheprobe.DeltaHit{
			Domain: fmt.Sprintf("domain-%d.example", i%5), QueryScope: netx.PrefixFrom(scope.Addr(), 20),
			RespScope: scope, PoP: fmt.Sprintf("pop-%d", i%22), At: at.Add(time.Duration(i) * time.Second),
		})
	}
	return d
}

// BenchmarkStageCheckpoint times the pipeline layer of a probing pass's
// checkpoint: a persisted stage whose build hands back a ready pass delta,
// so each run is the stage's fingerprint, the codec's Marshal and the
// durable statefs write (temp file, fsync, rename). It reports the
// milliseconds per checkpoint and the checkpoint file's size.
func BenchmarkStageCheckpoint(b *testing.B) {
	d := benchPassDelta()
	dir := b.TempDir()
	build := func(context.Context) (*cacheprobe.PassDelta, error) { return d, nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := New(Options{Dir: dir})
		AddStage(r, "probe-pass-3", "bench", nil, snapshot.PassDeltaCodec, build)
		if err := r.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st, err := os.Stat(filepath.Join(dir, "probe-pass-3.snap"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "pipeline.checkpoint_write_ms")
	b.ReportMetric(float64(st.Size()), "pipeline.checkpoint_bytes")
}
