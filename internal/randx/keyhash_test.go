package randx

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestFNV64aMatchesHashFNV pins the module's one FNV-1a loop to the
// standard library's over random inputs — FNV64a directly, and the
// seed-keyed hashes as FNV-1a over the seed's little-endian bytes then
// the key. Snapshot checksums, txids, shard deals and stage ownership all
// rest on these exact values.
func TestFNV64aMatchesHashFNV(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, r.Intn(300))
		r.Read(b)
		h := fnv.New64a()
		h.Write(b)
		if got, want := FNV64a(b), h.Sum64(); got != want {
			t.Fatalf("FNV64a(%x) = %x, hash/fnv %x", b, got, want)
		}
		seed := Seed(r.Uint64())
		var sb [8]byte
		binary.LittleEndian.PutUint64(sb[:], uint64(seed))
		h.Reset()
		h.Write(sb[:])
		h.Write(b)
		if got, want := seed.Hash64(string(b)), h.Sum64(); got != want {
			t.Fatalf("seed %d: Hash64(%x) = %x, hash/fnv %x", seed, b, got, want)
		}
		if got, want := seed.Hash64B(b), h.Sum64(); got != want {
			t.Fatalf("seed %d: Hash64B(%x) = %x, hash/fnv %x", seed, b, got, want)
		}
	}
}

// TestByteKeyVariantsMatchStrings is the determinism contract of the
// zero-alloc key path: hashing an append-built []byte key must produce
// exactly the value hashing the equal string always has, or every
// hash-derived decision (txids, scope flips, fault rolls, Poisson
// samples) would silently change under the optimized builders.
func TestByteKeyVariantsMatchStrings(t *testing.T) {
	keys := []string{
		"",
		"a",
		"probe/3/fra/en.wikipedia.org/192.0.2.0/24",
		"cacheprobe/txid/probe/0/ams/www.wikipedia.org/10.0.0.0/16",
		"traffic/ev/gpdns/example.com/198.51.100.0/20/7/2/12345",
		"faults/loss/1025/41112/8.8.8.8/tcp/aws:eu-west-1",
		"authdns/scope/en.wikipedia.org/203.0.113.0/18",
		"roots/emit/41/95",
	}
	seeds := []Seed{0, 1, 2021, 0xDEADBEEF, ^Seed(0)}
	for _, seed := range seeds {
		for _, k := range keys {
			if got, want := seed.Hash64B([]byte(k)), seed.Hash64(k); got != want {
				t.Errorf("seed %d key %q: Hash64B = %d, Hash64 = %d", seed, k, got, want)
			}
			if got, want := seed.HashUnitB([]byte(k)), seed.HashUnit(k); got != want {
				t.Errorf("seed %d key %q: HashUnitB = %v, HashUnit = %v", seed, k, got, want)
			}
		}
	}
}

// TestKeyStateStreamingIdentity pins the prefix-state API to the one
// hash it caches: for every split of a key, the state after the prefix
// extended by the suffix reads as Hash64B and HashUnitB of the whole key,
// empty prefixes and empty suffixes included, and extending in several
// steps equals extending once.
func TestKeyStateStreamingIdentity(t *testing.T) {
	keys := []string{
		"",
		"a",
		"cacheprobe/txid/probe/12/fra/en.wikipedia.org/10.0.0.0/16",
		"traffic/evt/gpdns/example.com/198.51.100.0/20/17/11/-5623445",
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		b := make([]byte, r.Intn(80))
		r.Read(b)
		keys = append(keys, string(b))
	}
	for _, seed := range []Seed{0, 2021, ^Seed(0)} {
		for _, k := range keys {
			key := []byte(k)
			whole, unit := seed.Hash64B(key), seed.HashUnitB(key)
			for cut := 0; cut <= len(key); cut++ {
				st := seed.KeyState(key[:cut]).Extend(key[cut:])
				if st.Hash64() != whole || st.Unit() != unit {
					t.Fatalf("seed %d key %q cut %d: state (%x, %v), whole-key hash (%x, %v)", seed, k, cut, st.Hash64(), st.Unit(), whole, unit)
				}
				mid := cut + (len(key)-cut)/2
				if got := seed.KeyState(key[:cut]).Extend(key[cut:mid]).Extend(key[mid:]).Hash64(); got != whole {
					t.Fatalf("seed %d key %q: two-step extension %x, whole-key hash %x", seed, k, got, whole)
				}
			}
			if got := seed.KeyState(nil).Extend(key).Extend(nil).Hash64(); got != whole {
				t.Fatalf("seed %d key %q: empty prefix and suffix give %x, whole-key hash %x", seed, k, got, whole)
			}
		}
	}
}

// TestReseedMatchesNew pins the stream-reuse path: a reseeded stream must
// draw the exact sequence a freshly constructed stream draws.
func TestReseedMatchesNew(t *testing.T) {
	seed := Seed(2021)
	r := seed.New("initial")
	_ = r.Float64() // disturb the state so ReseedB has something to reset
	for _, key := range []string{"roots/emit/0/0", "roots/emit/7/95", "traffic/x/12"} {
		fresh := seed.New(key)
		seed.ReseedB(r, []byte(key))
		for i := 0; i < 16; i++ {
			if got, want := r.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("key %q draw %d: reseeded %d != fresh %d", key, i, got, want)
			}
		}
	}
}

// TestHashByteKeyAllocs pins the point of the byte variants: hashing a
// reused key buffer allocates nothing.
func TestHashByteKeyAllocs(t *testing.T) {
	seed := Seed(99)
	buf := make([]byte, 0, 64)
	buf = append(buf, "probe/0/fra/example.com/10.0.0.0/16"...)
	var sink float64
	allocs := testing.AllocsPerRun(1000, func() {
		sink += seed.HashUnitB(buf)
	})
	if allocs != 0 {
		t.Errorf("HashUnitB allocates %.1f per run, want 0", allocs)
	}
	_ = sink
}
