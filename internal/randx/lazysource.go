package randx

// lazySource is math/rand's additive lagged Fibonacci generator (rngSource)
// with lazy seeding. rngSource.Seed runs its Lehmer LCG 1 841 steps and
// stores all 607 register words up front; the samplers here typically
// draw one to sixty values from a stream before reseeding it, so most of
// that work was thrown away. lazySource.Seed only records the LCG's start
// value x₀ and computes each register word the first time a draw reads it.
//
// The jump-ahead identity: rngSource.Seed sets word i to
//
//	(x[21+3i] << 40) ^ (x[22+3i] << 20) ^ x[23+3i] ^ rngCooked[i]
//
// where x[n] = 48271ⁿ · x₀ mod (2³¹−1), so word i is three modular
// multiplications by the precomputed powers in rngMul.
//
// Which words a draw reads for the first time is fixed by the draw count
// alone: draw k (1-based) advances tap to 607−k and feed to 334−k (mod 607)
// and overwrites the feed word. Draws 1..273 read tap words 606..334 that
// nothing has written; draws 1..334 read and overwrite feed words 333..0.
// Every later read finds a word an earlier draw filled, so after 334 draws
// the generator runs exactly rngSource's loop. The feed index itself
// therefore carries the fill state (see the tap and feed fields): nothing
// is cleared when a stream is reseeded, and the output is rngSource's bit
// for bit (TestLazySourceMatchesMathRand).
type lazySource struct {
	// tap and feed index the register as in rngSource, except that while
	// words remain unfilled feed is held lazyBias below its true value:
	// the decrement then always leaves it negative, so every lazy draw
	// takes the wrap branch and the steady-state loop carries no check.
	tap, feed int
	x0        uint64
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lcgMul   = 48271
	// lazyBias offsets feed during the lazy phase; any value above rngLen
	// keeps a biased feed distinguishable from a steady-state wrap (-1).
	lazyBias = 1 << 20
)

// rngMul[i] holds 48271ⁿ mod (2³¹−1) for n = 21+3i, 22+3i, 23+3i: the LCG
// steps rngSource.Seed takes to reach the three values mixed into word i.
var rngMul = func() (m [rngLen][3]uint32) {
	x := uint64(1)
	for n := 1; n <= 20; n++ {
		x = x * lcgMul % int32max
	}
	for i := range m {
		for j := range m[i] {
			x = x * lcgMul % int32max
			m[i][j] = uint32(x)
		}
	}
	return m
}()

func newLazySource(seed int64) *lazySource {
	s := new(lazySource)
	s.Seed(seed)
	return s
}

// Seed positions the generator at seed, normalised exactly as
// rngSource.Seed normalises it.
func (s *lazySource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap - lazyBias
	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
}

// Int63 returns a non-negative pseudo-random 63-bit integer. Int63 and
// Uint64 each spell out the draw instead of one calling the other:
// rand.Rand's samplers reach Int63 through an interface call, which
// should be the only call per draw, as it is for rngSource.
func (s *lazySource) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		return s.wrap() & rngMask
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & rngMask
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		return uint64(s.wrap())
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// wrap finishes a draw whose feed decrement went negative: a steady-state
// wrap, the end of the lazy phase, or a lazy draw, which first computes
// the register words it reads for the first time (see the type comment
// for the schedule).
func (s *lazySource) wrap() int64 {
	feed := s.feed
	switch {
	case feed == -1: // steady state: the register is filled
		feed += rngLen
		s.feed = feed
	case feed == -1-lazyBias: // draw 335: every word is filled now
		feed = rngLen - 1
		s.feed = feed
	default: // draw k ≤ 334, feed word 334−k unread
		feed += lazyBias
		if feed >= rngLen-2*rngTap { // k ≤ 273: the tap word is unread too
			s.vec[s.tap] = s.word(s.tap)
		}
		s.vec[feed] = s.word(feed)
	}
	x := s.vec[feed] + s.vec[s.tap]
	s.vec[feed] = x
	return x
}

// word is register word i as rngSource.Seed would have stored it.
func (s *lazySource) word(i int) int64 {
	m := &rngMul[i]
	return int64(lcgAt(m[0], s.x0)<<40) ^ int64(lcgAt(m[1], s.x0)<<20) ^ int64(lcgAt(m[2], s.x0)) ^ rngCooked[i]
}

// lcgAt returns pow·x₀ mod (2³¹−1). Both factors are below 2³¹, and
// 2³¹ ≡ 1 folds the product's high half onto its low half; the sum is
// never a multiple of the prime modulus, so one subtraction normalises it.
func lcgAt(pow uint32, x0 uint64) uint64 {
	p := uint64(pow) * x0
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}
