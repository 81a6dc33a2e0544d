// Package randx provides deterministic, purpose-keyed random number streams
// and the distribution samplers the synthetic Internet model is built from.
//
// Every source of randomness in this module flows through a Stream derived
// from a root seed plus a string key (for example "world/asn" or
// "traffic/chromium"). Two runs with the same seed produce bit-identical
// worlds, traces and measurement results, which is what makes the
// experiment harness reproducible; changing one consumer's key does not
// perturb any other consumer's stream.
package randx

import (
	"encoding/binary"
	"math"
	"math/rand"
)

// Seed is the root seed of a simulation run.
type Seed uint64

// Stream is a deterministic random stream. It wraps math/rand with a seed
// derived from (root seed, key) so distinct purposes never share state.
// The source underneath is lazySource, which draws math/rand's rngSource
// sequence bit for bit but seeds in constant time.
type Stream struct {
	*rand.Rand
}

// FNV-1a parameters (the same ones hash/fnv uses).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64a continues the FNV-1a state h over b. It is the module's one
// FNV-1a loop: FNV64a and every seed-keyed hash below are views of it.
func fnv64a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// FNV64a returns the 64-bit FNV-1a hash of b, bit-identical to hash/fnv's
// New64a without its interface, which would force b to escape. Snapshot
// checksums, cache keys, shard deals and stage ownership all hash here.
func FNV64a(b []byte) uint64 { return fnv64a(fnvOffset64, b) }

// seedState is the FNV-1a state after the root seed's eight little-endian
// bytes: the common prefix of every (seed, key) hash.
func seedState(seed Seed) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	return fnv64a(fnvOffset64, b[:])
}

// hashKey mixes a root seed and a string key into a 64-bit sub-seed.
func hashKey(seed Seed, key string) int64 { return hashKeyB(seed, []byte(key)) }

// hashKeyB is hashKey over a byte-slice key: identical output for equal
// bytes, no allocation and no escape of the key slice.
func hashKeyB(seed Seed, key []byte) int64 { return int64(fnv64a(seedState(seed), key)) }

// New returns the stream for the given purpose key.
func (s Seed) New(key string) *Stream {
	return &Stream{Rand: rand.New(newLazySource(hashKey(s, key)))}
}

// Reseed repositions an existing stream onto the given purpose key: the
// stream's subsequent draws are bit-identical to a fresh New(key) stream's,
// but the ~5 KB generator state is reused instead of reallocated. Loops
// that burn one short-lived stream per item (the root-trace generator
// reseeds per source-hour) amortize their generator to one allocation.
// Not safe concurrently with any use of the same stream.
func (s Seed) Reseed(r *Stream, key string) {
	r.Rand.Seed(hashKey(s, key))
}

// ReseedB is Reseed with an append-built byte-slice key.
func (s Seed) ReseedB(r *Stream, key []byte) {
	r.Rand.Seed(hashKeyB(s, key))
}

// Hash64 returns a stable 64-bit hash of (seed, key) with no stream state,
// for lazy per-entity decisions (e.g. "is this /24 active?") that must be
// answerable in any order.
func (s Seed) Hash64(key string) uint64 {
	return uint64(hashKey(s, key))
}

// Hash64B is Hash64 over a byte-slice key: Hash64B([]byte(k)) ==
// Hash64(k) for every k. Hot loops build keys by appending into a reused
// buffer and hash them here without materializing a string.
func (s Seed) Hash64B(key []byte) uint64 {
	return uint64(hashKeyB(s, key))
}

// HashUnit returns a stable uniform float64 in [0,1) for (seed, key).
func (s Seed) HashUnit(key string) float64 {
	return float64(s.Hash64(key)>>11) / (1 << 53)
}

// HashUnitB is HashUnit over a byte-slice key (same value as HashUnit of
// the equal string).
func (s Seed) HashUnitB(key []byte) float64 {
	return float64(s.Hash64B(key)>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}

// Exp returns an exponentially distributed sample with the given mean.
func (s *Stream) Exp(mean float64) float64 {
	return s.ExpFloat64() * mean
}

// Poisson returns a Poisson-distributed sample with the given mean, using
// inversion for small means and a normal approximation for large ones.
func (s *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 60 {
		// Normal approximation; adequate for the aggregate traffic counts
		// this model samples.
		v := s.NormFloat64()*math.Sqrt(mean) + mean
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// LogNormal returns a log-normal sample parameterized by the mean and sigma
// of the underlying normal.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.NormFloat64()*sigma + mu)
}

// Pareto returns a bounded Pareto-ish heavy-tailed sample >= xmin with
// shape alpha.
func (s *Stream) Pareto(xmin, alpha float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return xmin / math.Pow(u, 1/alpha)
}

// Zipf draws ranks in [0, n) following a Zipf distribution with exponent
// skew > 1e-9. Rank 0 is most popular.
type Zipf struct {
	z *rand.Zipf
	n int
}

// NewZipf constructs a Zipf sampler over n ranks with the given skew
// (typical web-popularity skews are 0.7-1.2; values <= 0 fall back to 1.0).
func (s *Stream) NewZipf(n int, skew float64) *Zipf {
	if skew <= 0 {
		skew = 1.0
	}
	// rand.Zipf requires s > 1; shift a sub-1 skew into the supported range
	// by using s slightly above 1 and relying on v to shape the tail.
	zs := skew
	if zs <= 1 {
		zs = 1.0001
	}
	return &Zipf{z: rand.NewZipf(s.Rand, zs, 1, uint64(n-1)), n: n}
}

// Rank returns the next sampled rank in [0, n).
func (z *Zipf) Rank() int { return int(z.z.Uint64()) }

// WeightedChoice picks an index in [0, len(weights)) with probability
// proportional to its weight. Weights must be non-negative; if they sum to
// zero the choice is uniform.
func (s *Stream) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return s.Intn(len(weights))
	}
	x := s.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// LowerLetters returns a random string of n lowercase ASCII letters — the
// alphabet Chromium draws its DNS interception probes from.
func (s *Stream) LowerLetters(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + s.Intn(26))
	}
	return string(b)
}
