package stream

import (
	"fmt"
	"testing"
	"time"

	"clientmap/internal/churn"
	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/metrics"
	"clientmap/internal/netx"
	"clientmap/internal/snapshot"
)

// benchSink keeps the encoder's output live.
var benchSink []byte

// BenchmarkHourDeltaCodec times one streamed hour's checkpoint both ways
// — encode is Marshal, decode is Open plus Decode, as a restore reads it
// — and reports MB/s of file under the benchmark ladder's metric names.
// The hour carries a churn tick's events, a pass delta of 4 000 hits
// and 3 000 root-visible resolver /24s.
func BenchmarkHourDeltaCodec(b *testing.B) {
	at := time.Unix(1_600_000_000, 0).UTC()
	d := &HourDelta{Hour: 12, Pass: &cacheprobe.PassDelta{Base: snapshot.HashBytes(nil), Pass: 12, Passes: 24, PassTime: at, Metrics: metrics.Ledger{}}}
	for i := 0; i < 50; i++ {
		d.Events = append(d.Events, churn.Event{Hour: 12, Kind: churn.KindRealloc, Tick: 2, Prefix: netx.Slash24(0x0a0000 + i*97), NewASN: uint32(64500 + i), NewUsers: 3.5})
	}
	for i := 0; i < 4000; i++ {
		scope := netx.PrefixFrom(netx.Addr(0x0a000000+uint32(i*7919%65536)<<8), 24)
		d.Pass.Hits = append(d.Pass.Hits, cacheprobe.DeltaHit{
			Domain: fmt.Sprintf("domain-%02d.example", i%40), QueryScope: netx.PrefixFrom(scope.Addr(), 16),
			RespScope: scope, PoP: fmt.Sprintf("pop-%d", i%22), At: at.Add(time.Duration(i) * time.Second),
		})
	}
	for i := 0; i < 3000; i++ {
		d.DNS = append(d.DNS, netx.Slash24(0x0b0000+i*5))
	}

	data, _ := HourDeltaCodec.Marshal("fp", d)
	mbPerS := func(b *testing.B) float64 {
		return float64(len(data)) * float64(b.N) / 1e6 / b.Elapsed().Seconds()
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink, _ = HourDeltaCodec.Marshal("fp", d)
		}
		b.ReportMetric(mbPerS(b), "snapshot.encode_mb_per_s.hourdelta")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, r, _, err := snapshot.Open(data)
			if err == nil {
				_, err = HourDeltaCodec.Decode(r)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(mbPerS(b), "snapshot.decode_mb_per_s.hourdelta")
	})
}
