package netx

import "math/bits"

// Set24 is a set of /24 prefixes backed by a bitmap over the full 2^24 /24
// space. A fully populated set costs 2 MiB; the bitmap is grown lazily in
// 64-bit words as members are added, so small sets stay small.
//
// The zero value is an empty set ready to use. Set24 is not safe for
// concurrent mutation.
type Set24 struct {
	words []uint64
	count int
}

// NewSet24 returns an empty set with capacity for the whole /24 space
// preallocated, avoiding growth during bulk insertion.
func NewSet24() *Set24 {
	return &Set24{words: make([]uint64, NumSlash24s/64)}
}

func (s *Set24) grow(word int) {
	if word < len(s.words) {
		return
	}
	n := len(s.words)
	if n == 0 {
		n = 1024
	}
	for n <= word {
		n *= 2
	}
	if n > NumSlash24s/64 {
		n = NumSlash24s / 64
	}
	w := make([]uint64, n)
	copy(w, s.words)
	s.words = w
}

// Add inserts p into the set and reports whether it was newly added.
func (s *Set24) Add(p Slash24) bool {
	word, bit := int(p>>6), uint(p&63)
	s.grow(word)
	if s.words[word]&(1<<bit) != 0 {
		return false
	}
	s.words[word] |= 1 << bit
	s.count++
	return true
}

// AddPrefix inserts every /24 covered by pfx (or, for prefixes more specific
// than /24, the containing /24). It returns the number of newly added /24s.
func (s *Set24) AddPrefix(pfx Prefix) int {
	added := 0
	pfx.Slash24s(func(p Slash24) bool {
		if s.Add(p) {
			added++
		}
		return true
	})
	return added
}

// Contains reports whether p is in the set.
func (s *Set24) Contains(p Slash24) bool {
	word, bit := int(p>>6), uint(p&63)
	return word < len(s.words) && s.words[word]&(1<<bit) != 0
}

// Len returns the number of /24s in the set.
func (s *Set24) Len() int { return s.count }

// Range calls fn for each member in ascending order until fn returns false.
func (s *Set24) Range(fn func(Slash24) bool) {
	for wi, w := range s.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(Slash24(wi*64 + bit)) {
				return
			}
			w &= w - 1
		}
	}
}

// IntersectCount returns |s ∩ t| without materializing the intersection.
func (s *Set24) IntersectCount(t *Set24) int {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	total := 0
	for i := 0; i < n; i++ {
		total += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return total
}

// Union returns a new set holding s ∪ t.
func (s *Set24) Union(t *Set24) *Set24 {
	long, short := s.words, t.words
	if len(short) > len(long) {
		long, short = short, long
	}
	out := &Set24{words: make([]uint64, len(long))}
	copy(out.words, long)
	for i, w := range short {
		out.words[i] |= w
	}
	for _, w := range out.words {
		out.count += bits.OnesCount64(w)
	}
	return out
}
