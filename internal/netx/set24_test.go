package netx

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSet24Basic(t *testing.T) {
	var s Set24
	p := MustParsePrefix("10.0.0.0/24").FirstSlash24()
	if s.Contains(p) {
		t.Error("empty set contains member")
	}
	if !s.Add(p) {
		t.Error("first Add returned false")
	}
	if s.Add(p) {
		t.Error("second Add returned true")
	}
	if !s.Contains(p) || s.Len() != 1 {
		t.Errorf("Contains=%v Len=%d", s.Contains(p), s.Len())
	}
}

func TestSet24AddPrefix(t *testing.T) {
	var s Set24
	if got := s.AddPrefix(MustParsePrefix("10.0.0.0/22")); got != 4 {
		t.Errorf("AddPrefix(/22) added %d, want 4", got)
	}
	if got := s.AddPrefix(MustParsePrefix("10.0.1.0/24")); got != 0 {
		t.Errorf("re-adding covered /24 added %d, want 0", got)
	}
	if got := s.AddPrefix(MustParsePrefix("10.0.4.128/25")); got != 1 {
		t.Errorf("AddPrefix(/25) added %d, want 1 (containing /24)", got)
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d, want 5", s.Len())
	}
}

func TestSet24RangeOrdered(t *testing.T) {
	var s Set24
	ins := []string{"200.1.2.0/24", "1.2.3.0/24", "80.90.100.0/24"}
	for _, x := range ins {
		s.AddPrefix(MustParsePrefix(x))
	}
	var got []Slash24
	s.Range(func(p Slash24) bool { got = append(got, p); return true })
	if len(got) != 3 {
		t.Fatalf("Range visited %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Errorf("not ascending: %v >= %v", got[i-1], got[i])
		}
	}
	// Early termination.
	n := 0
	s.Range(func(Slash24) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func randSet(r *rand.Rand, n int) *Set24 {
	s := &Set24{}
	for i := 0; i < n; i++ {
		s.Add(Slash24(r.Intn(1 << 20)))
	}
	return s
}

func TestSet24Algebra(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		a, b := randSet(r, 500), randSet(r, 500)
		union := a.Union(b)

		inter := 0
		a.Range(func(p Slash24) bool {
			if b.Contains(p) {
				inter++
			}
			return true
		})
		if got := a.IntersectCount(b); got != inter {
			t.Fatalf("IntersectCount=%d, members of both=%d", got, inter)
		}
		// |A ∪ B| = |A| + |B| - |A ∩ B|
		if union.Len() != a.Len()+b.Len()-inter {
			t.Fatalf("inclusion-exclusion violated: %d != %d+%d-%d",
				union.Len(), a.Len(), b.Len(), inter)
		}
	}
}

func TestSet24CloneEqual(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := randSet(r, 300)
	c := a.Union(&Set24{})
	if !a.Equal(c) || !c.Equal(a) {
		t.Fatal("copy not equal")
	}
	extra := Slash24(1<<22 + 5)
	c.Add(extra)
	if a.Equal(c) {
		t.Fatal("sets equal after divergence")
	}
	if a.Contains(extra) {
		t.Fatal("copy mutation leaked into original")
	}
}

func TestSet24EqualDifferentCapacities(t *testing.T) {
	a := NewSet24() // full capacity
	var b Set24     // lazily grown
	a.Add(100)
	b.Add(100)
	if !a.Equal(&b) || !b.Equal(a) {
		t.Error("equal sets with different backing sizes reported unequal")
	}
	a.Add(Slash24(NumSlash24s - 1))
	if a.Equal(&b) {
		t.Error("unequal sets reported equal")
	}
}

func TestSet24QuickAddContains(t *testing.T) {
	f := func(vals []uint32) bool {
		var s Set24
		seen := map[Slash24]bool{}
		for _, v := range vals {
			p := Slash24(v % NumSlash24s)
			added := s.Add(p)
			if added == seen[p] {
				return false // Add must report newness correctly
			}
			seen[p] = true
		}
		if s.Len() != len(seen) {
			return false
		}
		for p := range seen {
			if !s.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSet24IntersectCount(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randSet(r, 100000), randSet(r, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.IntersectCount(y)
	}
}

// Equal reports whether s and t contain exactly the same members.
func (s *Set24) Equal(t *Set24) bool {
	if s.count != t.count {
		return false
	}
	long, short := s.words, t.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}
