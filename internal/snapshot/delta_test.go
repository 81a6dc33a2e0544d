package snapshot

import (
	"reflect"
	"testing"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/health"
	"clientmap/internal/metrics"
)

func TestPassDeltaRoundTrip(t *testing.T) {
	d := &cacheprobe.PassDelta{
		Base:       "abcdef0123456789abcdef0123456789abcdef0123456789abcdef0123456789",
		Pass:       4,
		Passes:     9,
		PassTime:   ts(7200),
		ProbesSent: 12345,
		Assigned:   map[string]int{"fra": 40, "iad": 64, "nrt": 5},
		Hits: []cacheprobe.DeltaHit{
			{Domain: "example.com", QueryScope: pfx(0x01020000, 16), RespScope: pfx(0x01020300, 24), PoP: "fra", At: ts(7260)},
			{Domain: "video.example", QueryScope: pfx(0x0a000000, 8), RespScope: pfx(0x0a0b0000, 16), PoP: "iad", At: ts(7320)},
		},
		Metrics: metrics.Ledger{"cacheprobe/probes": 12345, "faults/injected_drops": 3, "health/hedge/fired": 2},
		Health: health.Ledger{
			Windows:     map[string][]health.WindowSum{"fra": {{Index: 2, OK: 30, Fail: 4}}},
			Transitions: []health.Transition{{Target: "fra", At: ts(7300), From: health.Closed, To: health.Open}},
			Coverage:    []health.PassCoverage{{Pass: 4, Assigned: 109, Primary: 100, Trial: 2, Alternate: 3, Fallback: 3, Lost: 1}},
			FailedOver:  map[string]int64{"fra": 6},
			LostTasks:   map[string]map[int]int{"fra": {17: 1}},
		},
	}
	roundTrip(t, KindCampaignDelta, VersionCampaignDelta,
		func(w *Writer) { EncodePassDelta(w, d) },
		func(r *Reader) {
			got, err := DecodePassDelta(r)
			if err != nil {
				t.Fatalf("DecodePassDelta: %v", err)
			}
			if !reflect.DeepEqual(got, d) {
				t.Errorf("pass delta round-trip:\n got %+v\nwant %+v", got, d)
			}
		})
}

// TestPassDeltaRoundTripEmpty: a delta from a pass that observed nothing
// (no hits, no faults, degradation off) survives the trip with its empty
// collections in decodable form.
func TestPassDeltaRoundTripEmpty(t *testing.T) {
	d := &cacheprobe.PassDelta{Base: "00", Pass: 0, Passes: 1, PassTime: ts(0), Metrics: metrics.Ledger{}}
	roundTrip(t, KindCampaignDelta, VersionCampaignDelta,
		func(w *Writer) { EncodePassDelta(w, d) },
		func(r *Reader) {
			got, err := DecodePassDelta(r)
			if err != nil {
				t.Fatalf("DecodePassDelta: %v", err)
			}
			if !reflect.DeepEqual(got, d) {
				t.Errorf("empty delta round-trip:\n got %+v\nwant %+v", got, d)
			}
		})
}

func TestShardResultRoundTrip(t *testing.T) {
	s := &cacheprobe.ShardResult{
		Pass: 2,
		Units: []cacheprobe.ShardUnit{
			{PoPIndex: 0, PoP: "fra", Lo: 0, Hi: 20},
			{PoPIndex: 1, PoP: "iad", Lo: 32, Hi: 64},
		},
		Tasks: []cacheprobe.ShardTaskResult{
			// A hit carries its response scope and timestamp...
			{PoPIndex: 0, TaskIndex: 3, Hit: true, RespScope: pfx(0x01020300, 24), At: ts(100),
				Probes: 2, RetrySpent: 1, RetryRecovered: 1, HedgeFired: 1, HedgeWon: 1},
			// ...a miss must not (the encoder gates those fields on Hit).
			{PoPIndex: 1, TaskIndex: 40, Probes: 3, RetrySpent: 2, RetryExhausted: 1},
		},
		Metrics: metrics.Ledger{"cacheprobe/probes": 77, "faults/flap_drops": 6},
		Windows: map[string][]health.WindowSum{"iad": {{Index: 0, OK: 18, Fail: 2}, {Index: 1, OK: 20}}},
	}
	roundTrip(t, KindShardResult, VersionShardResult,
		func(w *Writer) { EncodeShardResult(w, s) },
		func(r *Reader) {
			got, err := DecodeShardResult(r)
			if err != nil {
				t.Fatalf("DecodeShardResult: %v", err)
			}
			if !reflect.DeepEqual(got, s) {
				t.Errorf("shard result round-trip:\n got %+v\nwant %+v", got, s)
			}
		})
}

// TestCodecRecordsBase: a codec value frames its kind, checks headers
// against it, and reports the base a delta records — "" for a kind
// declared without Base.
func TestCodecRecordsBase(t *testing.T) {
	d := &cacheprobe.PassDelta{Base: "feedface", Passes: 1, Metrics: metrics.Ledger{}}
	data, hash := PassDeltaCodec.Marshal("fp", d)
	h, r, got, err := Open(data)
	if err != nil || got != hash {
		t.Fatalf("Open: %v, hash %s want %s", err, got, hash)
	}
	if h.Fingerprint != "fp" || PassDeltaCodec.Check(h) != nil || PassDeltaCodec.ID() != KindCampaignDelta {
		t.Fatalf("header %+v does not carry the codec's kind", h)
	}
	if CampaignCodec.Check(h) == nil {
		t.Fatal("a pass delta passed the campaign codec's check")
	}
	if base, err := PassDeltaCodec.DecodeBase(r); err != nil || base != "feedface" {
		t.Fatalf("DecodeBase = %q, %v", base, err)
	}
	_, r, _, _ = Open(data)
	if base, err := ShardResultCodec.DecodeBase(r); base != "" {
		t.Fatalf("a kind without Base reported %q (%v)", base, err)
	}
}
