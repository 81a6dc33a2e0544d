package snapshot

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/netx"
)

func ts(sec int64) time.Time { return time.Unix(sec, 12345).UTC() }

func pfx(a uint32, bits int) netx.Prefix { return netx.PrefixFrom(netx.Addr(a), bits) }

// roundTrip marshals with enc, reopens, checks the header, and hands the
// payload reader to dec. It also asserts encoding determinism: encoding
// the same value twice must yield the same bytes (and therefore the same
// content hash), since pipeline fingerprints chain on artifact hashes.
func roundTrip(t *testing.T, kind string, version uint16, enc func(*Writer), dec func(*Reader)) {
	t.Helper()
	h := Header{Kind: kind, Version: version, Fingerprint: "fp-test"}
	data, hash1 := Marshal(h, enc)
	_, hash2 := Marshal(h, enc)
	if hash1 != hash2 {
		t.Fatalf("%s: non-deterministic encoding: %s vs %s", kind, hash1, hash2)
	}

	gh, r, hash3, err := Open(data)
	if err != nil {
		t.Fatalf("%s: Open: %v", kind, err)
	}
	if hash3 != hash1 {
		t.Errorf("%s: Open hash %s, Marshal hash %s", kind, hash3, hash1)
	}
	if gh != h {
		t.Errorf("%s: header round-trip: got %+v, want %+v", kind, gh, h)
	}
	if err := Check(gh, kind, version); err != nil {
		t.Errorf("%s: Check: %v", kind, err)
	}
	dec(r)
	if err := r.Err(); err != nil {
		t.Errorf("%s: decode error: %v", kind, err)
	}
}

func TestCampaignRoundTrip(t *testing.T) {
	c := cacheprobe.NewCampaign()
	c.Passes, c.ProbesSent, c.PreScanQueries = 3, 98765, 4321
	c.PassTimes = []time.Time{ts(0), ts(3600), ts(7200)}
	c.PoPs["fra"] = &cacheprobe.PoPCalibration{
		PoP: "fra", Vantage: "aws:eu-central-1", RadiusKm: 1234.5,
		HitDistancesKm: []float64{10.5, 200.25, 999}, Assigned: 42,
	}
	c.PoPs["iad"] = &cacheprobe.PoPCalibration{PoP: "iad", Vantage: "aws:us-east-1", RadiusKm: 500}
	c.ScopesByDomain["example.com"] = []netx.Prefix{pfx(0x01020300, 24), pfx(0x0a000000, 16)}
	c.ScopesByDomain["empty.org"] = nil
	c.Hits["example.com"] = map[netx.Prefix]*cacheprobe.Hit{
		pfx(0x01020300, 24): {
			RespScope: pfx(0x01020300, 24), QueryScope: pfx(0x01020000, 16),
			PoP: "fra", Domain: "example.com", Count: 7, PassMask: 0b101,
			Times: []time.Time{ts(60), ts(120)},
		},
		pfx(0x0a000000, 16): {
			RespScope: pfx(0x0a000000, 16), QueryScope: pfx(0x0a000000, 16),
			PoP: "iad", Domain: "example.com", Count: 1, PassMask: 1 << 63,
		},
	}
	c.ScopeDiffs["example.com"] = map[int]int{0: 12, 8: 3}
	c.PoPHits["fra"] = 1
	c.PoPHits["iad"] = 1
	c.Metrics["cacheprobe/probe/probes"] = 98765
	c.Metrics["cacheprobe/retry/spent"] = 280
	c.Metrics["faults/injected_drops"] = 321
	c.Metrics["cacheprobe/pop/fra/retry_delay_ms/le=100"] = 12
	c.Metrics["dnsnet/vantage/timeouts"] = 0

	roundTrip(t, KindCampaign, VersionCampaign,
		func(w *Writer) { EncodeCampaign(w, c) },
		func(r *Reader) {
			got, err := DecodeCampaign(r)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c) {
				t.Errorf("campaign round-trip mismatch:\ngot  %+v\nwant %+v", got, c)
			}
		})
}

func TestVersionMismatch(t *testing.T) {
	data, _ := Marshal(Header{Kind: KindCampaign, Version: 2, Fingerprint: "x"},
		func(w *Writer) { w.Int(1) })
	h, _, _, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	err = Check(h, KindCampaign, 1)
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("Check across artifact versions: got %v, want ErrVersionMismatch", err)
	}
	if !strings.Contains(err.Error(), "snapshot version mismatch") {
		t.Errorf("error %q does not name the version mismatch", err)
	}
	// Wrong kind is a mismatch too.
	if err := Check(h, KindShardResult, 2); !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("Check across kinds: got %v, want ErrVersionMismatch", err)
	}
}

func TestFormatVersionMismatch(t *testing.T) {
	data, _ := Marshal(Header{Kind: "k", Version: 1}, func(w *Writer) { w.Int(7) })
	// The byte right after the 4-byte magic is the format version uvarint
	// (FormatVersion = 1 encodes as a single byte).
	bumped := append([]byte(nil), data...)
	bumped[4] = FormatVersion + 1
	if _, _, _, err := Open(bumped); !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("bumped container version: got %v, want ErrVersionMismatch", err)
	}
}

func TestCorruption(t *testing.T) {
	data, _ := Marshal(Header{Kind: "k", Version: 1}, func(w *Writer) {
		w.String("payload payload payload")
	})
	// Flip a byte inside the payload: checksum must catch it.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-12] ^= 0xff
	if _, _, _, err := Open(flipped); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped payload byte: got %v, want ErrCorrupt", err)
	}
	// Truncation.
	if _, _, _, err := Open(data[:len(data)-6]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated snapshot: got %v, want ErrCorrupt", err)
	}
	// Bad magic.
	if _, _, _, err := Open([]byte("nope")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: got %v, want ErrCorrupt", err)
	}
}
