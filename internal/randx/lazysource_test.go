package randx

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// lazyDraws is how far each differential check draws: past the first
// register wrap (607), where every lazily computed word has been read and
// rewritten at least once.
const lazyDraws = 2*rngLen + 3

// differentialSeeds are the rngSource.Seed normalisation edge cases (zero,
// negatives, the modulus and its multiples, the extremes) plus a spread of
// hashed seeds.
func differentialSeeds() []int64 {
	seeds := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, int32max, -int32max, int32max - 1, int32max + 1, 89482311}
	for k := int64(2); k <= 5; k++ {
		seeds = append(seeds, k*int32max, -k*int32max, k*int32max+1)
	}
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, hashKey(Seed(i), "lazy/"+strconv.Itoa(i)))
	}
	return seeds
}

// TestLazySourceMatchesMathRand is the determinism contract of lazy
// seeding: for every seed, lazySource's raw output equals math/rand's
// rngSource's, so every stream in the module draws what it always drew.
func TestLazySourceMatchesMathRand(t *testing.T) {
	for _, seed := range differentialSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		got := newLazySource(seed)
		for i := 0; i < lazyDraws; i++ {
			if i%2 == 0 {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 = %d, math/rand = %d", seed, i, g, w)
				}
			} else if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 = %d, math/rand = %d", seed, i, g, w)
			}
		}
	}
}

// drawMix runs every rand.Rand sampler the module's samplers build on, so
// the comparison covers the rejection loops (NormFloat64, ExpFloat64,
// Intn) that consume a variable number of source values per call.
func drawMix(r *rand.Rand, out []float64) []float64 {
	out = out[:0]
	for len(out) < lazyDraws {
		out = append(out, r.Float64(), r.NormFloat64(), r.ExpFloat64(), float64(r.Intn(1000)), float64(r.Int63n(1<<40)))
		for _, v := range r.Perm(7) {
			out = append(out, float64(v))
		}
	}
	return out
}

// TestLazySourceSamplersMatch compares the derived samplers through
// rand.Rand, on fresh streams and on one reused stream repositioned by
// Reseed and ReseedB.
func TestLazySourceSamplersMatch(t *testing.T) {
	seed := Seed(2021)
	reused := seed.New("initial")
	var want, got []float64
	for i := 0; i < 300; i++ {
		key := "samplers/" + strconv.Itoa(i)
		want = drawMix(rand.New(rand.NewSource(hashKey(seed, key))), want)
		got = drawMix(seed.New(key).Rand, got)
		check := func(how string) {
			t.Helper()
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("key %q (%s) value %d: %v, math/rand %v", key, how, j, got[j], want[j])
				}
			}
		}
		check("New")
		if i%2 == 0 {
			seed.Reseed(reused, key)
		} else {
			seed.ReseedB(reused, []byte(key))
		}
		got = drawMix(reused.Rand, got)
		check("reseeded")
	}
}

// FuzzLazySource checks lazySource against math/rand for arbitrary seeds
// and draw counts, reseeding the same source mid-way to cover reuse.
func FuzzLazySource(f *testing.F) {
	f.Add(int64(0), uint16(1))
	f.Add(int64(-1), uint16(rngLen-rngTap))
	f.Add(int64(int32max), uint16(rngLen+1))
	f.Add(int64(math.MinInt64), uint16(3*rngLen))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		n := int(draws) % (4 * rngLen)
		got := newLazySource(seed ^ 0x5bd1e995)
		for _, s := range []int64{seed, seed + 1} {
			got.Seed(s)
			want := rand.NewSource(s).(rand.Source64)
			for i := 0; i < n; i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: %d, math/rand %d", s, i, g, w)
				}
			}
		}
	})
}

// BenchmarkReseed times the per-item stream reuse pattern of the trace
// generator and the CDN collector: reposition a stream, draw a handful of
// values. The math-rand sub-benchmark is the same loop on math/rand's
// eagerly seeded source, the reference lazy seeding replaces.
func BenchmarkReseed(b *testing.B) {
	key := []byte("roots/emit/41/95")
	b.Run("randx", func(b *testing.B) {
		seed := Seed(2021)
		r := seed.New("bench")
		var sink float64
		for i := 0; i < b.N; i++ {
			seed.ReseedB(r, key)
			for j := 0; j < 8; j++ {
				sink += r.Float64()
			}
		}
		_ = sink
	})
	b.Run("math-rand", func(b *testing.B) {
		seed := Seed(2021)
		r := rand.New(rand.NewSource(1))
		var sink float64
		for i := 0; i < b.N; i++ {
			r.Seed(hashKeyB(seed, key))
			for j := 0; j < 8; j++ {
				sink += r.Float64()
			}
		}
		_ = sink
	})
}
