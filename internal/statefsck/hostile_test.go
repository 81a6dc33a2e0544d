package statefsck

import (
	"errors"
	"testing"
	"time"

	"clientmap/internal/churn"
	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/core/dnslogs"
	"clientmap/internal/netx"
	"clientmap/internal/serve"
	"clientmap/internal/snapshot"
	"clientmap/internal/stream"
)

// hostileSamples returns one non-trivial checkpoint file per kind fsck
// deep-checks, keyed by kind. Every codec in codecs must have one, so a
// kind added to the list is swept from the day it is added.
func hostileSamples() map[string][]byte {
	at := func(sec int64) time.Time { return time.Unix(sec, 12345).UTC() }
	p24 := netx.PrefixFrom(0x01020300, 24)
	p16 := netx.PrefixFrom(0x01020000, 16)

	camp := cacheprobe.NewCampaign()
	camp.Passes, camp.ProbesSent = 3, 4242
	camp.PassTimes = []time.Time{at(0), at(3600)}
	camp.PoPs["fra"] = &cacheprobe.PoPCalibration{PoP: "fra", Vantage: "aws:eu-central-1", RadiusKm: 900, HitDistancesKm: []float64{10, 20}, Assigned: 7}
	camp.ScopesByDomain["example.com"] = []netx.Prefix{p24}
	camp.Hits["example.com"] = map[netx.Prefix]*cacheprobe.Hit{p24: {
		RespScope: p24, QueryScope: p16, PoP: "fra", Domain: "example.com", Count: 2, PassMask: 0b11, Times: []time.Time{at(60)},
	}}
	camp.ScopeDiffs["example.com"] = map[int]int{0: 3}
	camp.PoPHits["fra"] = 2
	camp.Metrics["cacheprobe/probe/probes"] = 4242

	delta := &cacheprobe.PassDelta{
		Base: "aaaa1111", Pass: 1, Passes: 4, PassTime: at(7200), ProbesSent: 99,
		Assigned: map[string]int{"fra": 3},
		Hits:     []cacheprobe.DeltaHit{{Domain: "example.com", QueryScope: p16, RespScope: p24, PoP: "fra", At: at(7300)}},
	}
	shard := &cacheprobe.ShardResult{
		Pass:  2,
		Units: []cacheprobe.ShardUnit{{PoPIndex: 0, PoP: "fra", Lo: 0, Hi: 4}},
		Tasks: []cacheprobe.ShardTaskResult{{PoPIndex: 0, TaskIndex: 3, Hit: true, RespScope: p24, At: at(100), Probes: 2}},
	}
	logs := &dnslogs.Result{
		ResolverCounts: map[netx.Addr]float64{0x08080808: 12.5},
		TotalQueries:   1e5, PatternMatches: 42, FilteredNames: 3,
		LettersRead: []string{"J", "K"},
	}
	hour := &stream.HourDelta{
		Hour:   3,
		Events: []churn.Event{{Hour: 3, Kind: churn.KindRealloc, Tick: 7, Prefix: 0x010203, NewASN: 64500}, {Hour: 3, Kind: churn.KindPoPWithdraw, PoP: "fra"}},
		Pass:   delta,
		DNS:    []netx.Slash24{0x010203, 0x0a0b0c},
	}
	cm := &serve.ClientMap{
		Meta: serve.Meta{Seed: 7, Scale: "tiny", Passes: 2, BuiltAt: at(0), Source: "hostile"},
		Scopes: []serve.ScopeEvidence{{Scope: p24, Hits: 2, PassMask: 0b11, Domains: 1, Confidence: 0.75,
			PoPs: []serve.PoPEvidence{{PoP: "fra", Hits: 2}}}},
	}

	file := func(data []byte, _ string) []byte { return data }
	return map[string][]byte{
		snapshot.CampaignCodec.Kind:    file(snapshot.CampaignCodec.Marshal("fp", camp)),
		snapshot.PassDeltaCodec.Kind:   file(snapshot.PassDeltaCodec.Marshal("fp", delta)),
		snapshot.ShardResultCodec.Kind: file(snapshot.ShardResultCodec.Marshal("fp", shard)),
		dnslogs.ResultCodec.Kind:       file(dnslogs.ResultCodec.Marshal("fp", logs)),
		stream.HourDeltaCodec.Kind:     file(stream.HourDeltaCodec.Marshal("fp", hour)),
		serve.ClientMapCodec.Kind:      file(serve.ClientMapCodec.Marshal("fp", cm)),
	}
}

// deepCheck runs fsck's read path on data — open, look up the kind's
// codec, check the header, decode — and reports whether it decoded. Any
// rejection must be one of the two sentinels; a panic fails the test.
func deepCheck(t *testing.T, data []byte, what string) (decoded bool, payloadHash string) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("%s: decoder panicked: %v", what, p)
		}
	}()
	known := func(err error) bool {
		return errors.Is(err, snapshot.ErrCorrupt) || errors.Is(err, snapshot.ErrVersionMismatch)
	}
	h, r, hash, err := snapshot.Open(data)
	if err != nil {
		if !known(err) {
			t.Errorf("%s: Open error is not a sentinel: %v", what, err)
		}
		return false, ""
	}
	c := codecFor(h.Kind)
	if c == nil {
		return false, ""
	}
	if err := c.Check(h); err != nil {
		if !known(err) {
			t.Errorf("%s: Check error is not a sentinel: %v", what, err)
		}
		return false, ""
	}
	if _, err := c.DecodeBase(r); err != nil {
		if !known(err) {
			t.Errorf("%s: decode error is not a sentinel: %v", what, err)
		}
		return false, ""
	}
	return true, hash
}

// TestHostileCodecs sweeps every deep-checked kind's sample: every
// prefix must fail with a sentinel, never decode, never panic; a byte
// flipped at any offset must fail the same way or — when it lands in
// header bytes the checksum does not cover, like the fingerprint —
// decode the original, unaltered payload.
func TestHostileCodecs(t *testing.T) {
	samples := hostileSamples()
	for _, c := range codecs {
		data, ok := samples[c.ID()]
		if !ok {
			t.Errorf("%s: no hostile sample", c.ID())
			continue
		}
		ok, origHash := deepCheck(t, data, c.ID())
		if !ok {
			t.Fatalf("%s: the untouched sample does not decode", c.ID())
		}
		for i := 0; i < len(data); i++ {
			if ok, _ := deepCheck(t, data[:i], c.ID()+" truncated"); ok {
				t.Errorf("%s: truncation to %d/%d bytes decoded", c.ID(), i, len(data))
			}
			mut := append([]byte(nil), data...)
			mut[i] ^= 0x42
			if ok, hash := deepCheck(t, mut, c.ID()+" bit-flipped"); ok && hash != origHash {
				t.Errorf("%s: flip at offset %d/%d decoded an altered payload", c.ID(), i, len(data))
			}
		}
	}
}

// FuzzCheckpoint drives arbitrary bytes through fsck's read path, seeded
// with every deep-checked kind's sample: no panic, no runaway
// allocation, every rejection a sentinel.
func FuzzCheckpoint(f *testing.F) {
	samples := hostileSamples()
	for _, c := range codecs {
		f.Add(samples[c.ID()])
	}
	f.Fuzz(func(t *testing.T, data []byte) { deepCheck(t, data, "fuzzed") })
}
