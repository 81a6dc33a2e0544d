package snapshot

import (
	"fmt"
	"testing"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/metrics"
	"clientmap/internal/netx"
)

// benchSink keeps the encoders' output live.
var benchSink []byte

// benchCodec times c both ways over v's checkpoint file — encode is
// Marshal, decode is Open plus Decode, as a restore reads it — and
// reports MB/s of file under the benchmark ladder's metric names.
func benchCodec[T any](b *testing.B, kind string, c *Codec[T], v T) {
	data, _ := c.Marshal("fp", v)
	mbPerS := func(b *testing.B) float64 {
		return float64(len(data)) * float64(b.N) / 1e6 / b.Elapsed().Seconds()
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink, _ = c.Marshal("fp", v)
		}
		b.ReportMetric(mbPerS(b), "snapshot.encode_mb_per_s."+kind)
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, r, _, err := Open(data)
			if err == nil {
				_, err = c.Decode(r)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(mbPerS(b), "snapshot.decode_mb_per_s."+kind)
	})
}

// benchHits is a pass's worth of hits: 40 domains × 400 /24 scopes.
func benchHits(at time.Time) []cacheprobe.DeltaHit {
	var hits []cacheprobe.DeltaHit
	for d := 0; d < 40; d++ {
		for s := 0; s < 400; s++ {
			scope := netx.PrefixFrom(netx.Addr(0x0a000000+uint32(s*7919%65536)<<8), 24)
			hits = append(hits, cacheprobe.DeltaHit{
				Domain: fmt.Sprintf("domain-%02d.example", d), QueryScope: netx.PrefixFrom(scope.Addr(), 16),
				RespScope: scope, PoP: fmt.Sprintf("pop-%d", s%22), At: at.Add(time.Duration(s) * time.Second),
			})
		}
	}
	return hits
}

// BenchmarkCampaignCodec times the campaign checkpoint of a nine-pass
// campaign that folded benchHits every pass.
func BenchmarkCampaignCodec(b *testing.B) {
	c := cacheprobe.NewCampaign()
	at := time.Unix(1_600_000_000, 0).UTC()
	for k := 0; k < 9; k++ {
		(&cacheprobe.PassDelta{Pass: k, Passes: 9, PassTime: at, Hits: benchHits(at), Metrics: metrics.Ledger{}}).Apply(c)
		at = at.Add(time.Hour)
	}
	benchCodec(b, "campaign", CampaignCodec, c)
}

// BenchmarkPassDeltaCodec times one pass's delta checkpoint.
func BenchmarkPassDeltaCodec(b *testing.B) {
	at := time.Unix(1_600_000_000, 0).UTC()
	d := &cacheprobe.PassDelta{
		Base: HashBytes(nil), Pass: 3, Passes: 9, PassTime: at, ProbesSent: 250_000,
		Assigned: map[string]int{"fra": 9000, "iad": 12000, "nrt": 4000},
		Hits:     benchHits(at),
		Metrics:  metrics.Ledger{"cacheprobe/probe/probes": 250_000, "cacheprobe/probe/hits": 16_000},
	}
	benchCodec(b, "passdelta", PassDeltaCodec, d)
}
