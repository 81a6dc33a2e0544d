package snapshot

import (
	"errors"
	"testing"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/netx"
)

// hostileKind registers one artifact codec for the adversarial sweeps:
// a sample and the decoder that must survive anything the container
// layer lets through. These are this package's own kinds; the kinds
// other packages own are swept by statefsck's tests over its codecs
// list and, for the baselines composite, by experiments' tests.
type hostileKind struct {
	kind    string
	version uint16
	enc     func(*Writer)
	dec     func(*Reader) error
}

func hostileKinds() []hostileKind {
	camp := cacheprobe.NewCampaign()
	camp.Passes, camp.ProbesSent = 3, 4242
	camp.PassTimes = []time.Time{ts(0), ts(3600)}
	camp.PoPs["fra"] = &cacheprobe.PoPCalibration{
		PoP: "fra", Vantage: "aws:eu-central-1", RadiusKm: 900,
		HitDistancesKm: []float64{10, 20}, Assigned: 7,
	}
	camp.ScopesByDomain["example.com"] = []netx.Prefix{pfx(0x01020300, 24)}
	camp.Hits["example.com"] = map[netx.Prefix]*cacheprobe.Hit{
		pfx(0x01020300, 24): {
			RespScope: pfx(0x01020300, 24), QueryScope: pfx(0x01020000, 16),
			PoP: "fra", Domain: "example.com", Count: 2, PassMask: 0b11,
			Times: []time.Time{ts(60)},
		},
	}
	camp.PoPHits["fra"] = 2
	camp.Metrics["cacheprobe/probe/probes"] = 4242

	delta := &cacheprobe.PassDelta{
		Base: "aaaa1111", Pass: 1, Passes: 4, PassTime: ts(7200), ProbesSent: 99,
		Assigned: map[string]int{"fra": 3},
		Hits: []cacheprobe.DeltaHit{{
			Domain: "example.com", QueryScope: pfx(0x01020000, 16),
			RespScope: pfx(0x01020300, 24), PoP: "fra", At: ts(7300),
		}},
	}

	shard := &cacheprobe.ShardResult{
		Pass:  2,
		Units: []cacheprobe.ShardUnit{{PoPIndex: 0, PoP: "fra", Lo: 0, Hi: 4}},
		Tasks: []cacheprobe.ShardTaskResult{{
			PoPIndex: 0, TaskIndex: 3, Hit: true,
			RespScope: pfx(0x01020300, 24), At: ts(100), Probes: 2,
		}},
	}

	return []hostileKind{
		{KindCampaign, VersionCampaign,
			func(w *Writer) { EncodeCampaign(w, camp) },
			func(r *Reader) error { _, err := DecodeCampaign(r); return err }},
		{KindCampaignDelta, VersionCampaignDelta,
			func(w *Writer) { EncodePassDelta(w, delta) },
			func(r *Reader) error { _, err := DecodePassDelta(r); return err }},
		{KindShardResult, VersionShardResult,
			func(w *Writer) { EncodeShardResult(w, shard) },
			func(r *Reader) error { _, err := DecodeShardResult(r); return err }},
		// The empty value of each kind: a pass that observed nothing.
		{KindCampaign, VersionCampaign,
			func(w *Writer) { EncodeCampaign(w, cacheprobe.NewCampaign()) },
			func(r *Reader) error { _, err := DecodeCampaign(r); return err }},
		{KindCampaignDelta, VersionCampaignDelta,
			func(w *Writer) { EncodePassDelta(w, &cacheprobe.PassDelta{}) },
			func(r *Reader) error { _, err := DecodePassDelta(r); return err }},
		{KindShardResult, VersionShardResult,
			func(w *Writer) { EncodeShardResult(w, &cacheprobe.ShardResult{}) },
			func(r *Reader) error { _, err := DecodeShardResult(r); return err }},
	}
}

// knownError says an error is one of the two sentinels hostile input is
// allowed to surface as.
func knownError(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersionMismatch)
}

// openAndDecode runs the full read path on mutated bytes, converting a
// panic into a test failure that names the mutation.
func openAndDecode(t *testing.T, k hostileKind, data []byte, what string) (decoded bool, payloadHash string) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("%s %s: decoder panicked: %v", k.kind, what, p)
		}
	}()
	h, r, hash, err := Open(data)
	if err != nil {
		if !knownError(err) {
			t.Errorf("%s %s: Open error is neither ErrCorrupt nor ErrVersionMismatch: %v", k.kind, what, err)
		}
		return false, ""
	}
	if err := Check(h, k.kind, k.version); err != nil {
		if !errors.Is(err, ErrVersionMismatch) {
			t.Errorf("%s %s: Check error: %v", k.kind, what, err)
		}
		return false, ""
	}
	if err := k.dec(r); err != nil {
		if !knownError(err) {
			t.Errorf("%s %s: decode error is not a sentinel: %v", k.kind, what, err)
		}
		return false, ""
	}
	return true, hash
}

// TestHostileTruncation feeds every prefix of every kind's encoding to
// the full read path: each must fail with a sentinel error, never panic,
// never decode.
func TestHostileTruncation(t *testing.T) {
	for _, k := range hostileKinds() {
		data, _ := Marshal(Header{Kind: k.kind, Version: k.version, Fingerprint: "fp"}, k.enc)
		for i := 0; i < len(data); i++ {
			if ok, _ := openAndDecode(t, k, data[:i], "truncated"); ok {
				t.Errorf("%s: truncation to %d/%d bytes decoded successfully", k.kind, i, len(data))
			}
		}
	}
}

// TestHostileBitFlip flips one byte at every offset of every kind's
// encoding. Each mutation must either fail with a sentinel error or —
// when the flip landed in header territory the checksum does not cover,
// like the fingerprint — decode the original, unaltered payload.
func TestHostileBitFlip(t *testing.T) {
	for _, k := range hostileKinds() {
		data, origHash := Marshal(Header{Kind: k.kind, Version: k.version, Fingerprint: "fp"}, k.enc)
		for i := 0; i < len(data); i++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 0x42
			ok, hash := openAndDecode(t, k, mut, "bit-flipped")
			if ok && hash != origHash {
				t.Errorf("%s: flip at offset %d/%d decoded an ALTERED payload (hash %.12s != %.12s)",
					k.kind, i, len(data), hash, origHash)
			}
		}
	}
}

// FuzzSnapshotDecode drives arbitrary bytes through Open and, when the
// container parses, through the kind's registered decoder. The invariant
// under fuzzing is purely "no panic, no runaway allocation": every
// rejection must be a sentinel error.
func FuzzSnapshotDecode(f *testing.F) {
	kinds := hostileKinds()
	decoders := make(map[string]func(*Reader) error, len(kinds))
	for _, k := range kinds {
		data, _ := Marshal(Header{Kind: k.kind, Version: k.version, Fingerprint: "fp"}, k.enc)
		f.Add(data)
		decoders[k.kind] = k.dec
	}
	foreign, _ := Marshal(Header{Kind: "foreign.Kind", Version: 1}, func(w *Writer) { w.Int(7) })
	bumped := append([]byte(nil), foreign...)
	bumped[4] = FormatVersion + 1
	f.Add(foreign)
	f.Add(bumped)
	f.Add([]byte("CMSP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, r, _, err := Open(data)
		if err != nil {
			if !knownError(err) {
				t.Fatalf("Open error is not a sentinel: %v", err)
			}
			return
		}
		if dec, ok := decoders[h.Kind]; ok {
			if err := dec(r); err != nil && !knownError(err) {
				t.Fatalf("%s decode error is not a sentinel: %v", h.Kind, err)
			}
		}
	})
}
