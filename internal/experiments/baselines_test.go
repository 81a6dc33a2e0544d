package experiments

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"clientmap/internal/apnic"
	"clientmap/internal/asdb"
	"clientmap/internal/cdn"
	"clientmap/internal/netx"
	"clientmap/internal/snapshot"
	"clientmap/internal/world"
)

// roundTripPart frames v under a test-local kind with enc, reopens it
// and decodes it with dec: the part codecs have no kind of their own,
// since only the baselines composite is ever written.
func roundTripPart[T any](t *testing.T, v T, enc func(*snapshot.Writer, T), dec func(*snapshot.Reader) (T, error)) T {
	t.Helper()
	c := &snapshot.Codec[T]{Kind: "part", Version: 1, Encode: enc, Decode: dec}
	data, hash := c.Marshal("fp", v)
	if again, _ := c.Marshal("fp", v); string(again) != string(data) {
		t.Fatal("non-deterministic encoding")
	}
	h, r, got, err := snapshot.Open(data)
	if err != nil || got != hash || c.Check(h) != nil {
		t.Fatalf("Open: %v (hash %s want %s, header %+v)", err, got, hash, h)
	}
	out, err := c.Decode(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sampleCDN() *cdn.Datasets {
	return &cdn.Datasets{
		Clients:   &cdn.Clients{Volume: map[netx.Slash24]int64{0x010203: 100, 0x0a0b0c: 5}, Total: 105},
		Resolvers: &cdn.Resolvers{ClientIPs: map[netx.Addr]int64{0x08080808: 250}, Total: 250},
		ECS: &cdn.ECSPrefixes{
			Queries: map[netx.Prefix]int64{netx.PrefixFrom(0x01020300, 24): 9, netx.PrefixFrom(0x01020000, 16): 2},
			Total:   11,
		},
		Day: time.Unix(86400, 12345).UTC(),
	}
}

func sampleAPNIC() *apnic.Estimates {
	return &apnic.Estimates{
		Users:        map[uint32]float64{65001: 1000.5, 65002: 0.25},
		Impressions:  map[uint32]int{65001: 300},
		CountryUsers: map[string]float64{"US": 5000, "DE": 750.5},
	}
}

func sampleASDB() *asdb.DB {
	return asdb.FromCategories(map[uint32]world.Category{65001: "isp", 65002: "hosting"})
}

func TestCDNRoundTrip(t *testing.T) {
	d := sampleCDN()
	if got := roundTripPart(t, d, encodeCDN, decodeCDN); !reflect.DeepEqual(got, d) {
		t.Errorf("cdn round-trip mismatch:\ngot  %+v\nwant %+v", got, d)
	}
}

func TestAPNICRoundTrip(t *testing.T) {
	e := sampleAPNIC()
	if got := roundTripPart(t, e, encodeAPNIC, decodeAPNIC); !reflect.DeepEqual(got, e) {
		t.Errorf("apnic round-trip mismatch:\ngot  %+v\nwant %+v", got, e)
	}
}

func TestASDBRoundTrip(t *testing.T) {
	entries := func(db *asdb.DB) map[uint32]world.Category {
		m := map[uint32]world.Category{}
		db.Range(func(asn uint32, c world.Category) bool { m[asn] = c; return true })
		return m
	}
	db := sampleASDB()
	if got := roundTripPart(t, db, encodeASDB, decodeASDB); !reflect.DeepEqual(entries(got), entries(db)) {
		t.Error("asdb round-trip mismatch")
	}
}

// decodeBaselines runs the composite's read path on data, turning a
// panic into a test failure. Any rejection must be a sentinel.
func decodeBaselines(t *testing.T, data []byte, what string) (decoded bool, payloadHash string) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("%s: decoder panicked: %v", what, p)
		}
	}()
	h, r, hash, err := snapshot.Open(data)
	if err == nil {
		err = baselinesCodec.Check(h)
	}
	if err == nil {
		_, err = baselinesCodec.Decode(r)
	}
	if err != nil && !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrVersionMismatch) {
		t.Errorf("%s: error is not a sentinel: %v", what, err)
	}
	return err == nil, hash
}

func sampleBaselines() []byte {
	data, _ := baselinesCodec.Marshal("fp", &baselineArtifact{CDN: sampleCDN(), APNIC: sampleAPNIC(), ASDB: sampleASDB()})
	return data
}

// TestBaselinesHostile sweeps the composite: every truncation must fail
// with a sentinel, and a byte flipped anywhere must fail the same way or
// decode the original payload.
func TestBaselinesHostile(t *testing.T) {
	data := sampleBaselines()
	ok, origHash := decodeBaselines(t, data, "untouched")
	if !ok {
		t.Fatal("the untouched sample does not decode")
	}
	for i := 0; i < len(data); i++ {
		if ok, _ := decodeBaselines(t, data[:i], "truncated"); ok {
			t.Errorf("truncation to %d/%d bytes decoded", i, len(data))
		}
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x42
		if ok, hash := decodeBaselines(t, mut, "bit-flipped"); ok && hash != origHash {
			t.Errorf("flip at offset %d/%d decoded an altered payload", i, len(data))
		}
	}
}

// FuzzBaselinesDecode drives arbitrary bytes through the composite's
// read path: no panic, no runaway allocation, every rejection a sentinel.
func FuzzBaselinesDecode(f *testing.F) {
	f.Add(sampleBaselines())
	f.Fuzz(func(t *testing.T, data []byte) { decodeBaselines(t, data, "fuzzed") })
}
