package netx

import (
	"math/rand"
	"testing"
)

func TestTrieInsertLookup(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustParsePrefix("10.0.0.0/8"), "big")
	tr.Insert(MustParsePrefix("10.1.0.0/16"), "mid")
	tr.Insert(MustParsePrefix("10.1.2.0/24"), "small")

	cases := []struct {
		addr string
		want string
		pfx  string
	}{
		{"10.1.2.3", "small", "10.1.2.0/24"},
		{"10.1.9.1", "mid", "10.1.0.0/16"},
		{"10.200.0.1", "big", "10.0.0.0/8"},
	}
	for _, c := range cases {
		v, p, ok := tr.Lookup(MustParseAddr(c.addr))
		if !ok || v != c.want || p.String() != c.pfx {
			t.Errorf("Lookup(%s) = %q %v %v, want %q %s", c.addr, v, p, ok, c.want, c.pfx)
		}
	}
	if _, _, ok := tr.Lookup(MustParseAddr("11.0.0.1")); ok {
		t.Error("Lookup outside stored prefixes should miss")
	}
	if tr.Len() != 3 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestTrieReplace(t *testing.T) {
	var tr Trie[int]
	p := MustParsePrefix("192.0.2.0/24")
	if !tr.Insert(p, 1) {
		t.Error("first insert should be fresh")
	}
	if tr.Insert(p, 2) {
		t.Error("second insert should replace")
	}
	if v, ok := tr.Get(p); !ok || v != 2 {
		t.Errorf("Get = %d %v", v, ok)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustParsePrefix("0.0.0.0/0"), "default")
	v, p, ok := tr.Lookup(MustParseAddr("203.0.113.9"))
	if !ok || v != "default" || p.Bits() != 0 {
		t.Errorf("default route lookup = %q %v %v", v, p, ok)
	}
}

func TestTrieLookupPrefix(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustParsePrefix("10.0.0.0/8"), "eight")
	tr.Insert(MustParsePrefix("10.1.0.0/16"), "sixteen")

	v, _, ok := tr.LookupPrefix(MustParsePrefix("10.1.2.0/24"))
	if !ok || v != "sixteen" {
		t.Errorf("LookupPrefix(/24 inside /16) = %q %v", v, ok)
	}
	v, _, ok = tr.LookupPrefix(MustParsePrefix("10.0.0.0/12"))
	if !ok || v != "eight" {
		t.Errorf("LookupPrefix(/12) = %q %v", v, ok)
	}
	// A /16 stored exactly matches itself.
	v, _, ok = tr.LookupPrefix(MustParsePrefix("10.1.0.0/16"))
	if !ok || v != "sixteen" {
		t.Errorf("LookupPrefix(self) = %q %v", v, ok)
	}
	if _, _, ok := tr.LookupPrefix(MustParsePrefix("11.0.0.0/8")); ok {
		t.Error("LookupPrefix outside should miss")
	}
}

func TestTrieWalkOrder(t *testing.T) {
	var tr Trie[int]
	ins := []string{"192.0.2.0/24", "10.0.0.0/8", "10.1.0.0/16", "172.16.0.0/12"}
	for i, s := range ins {
		tr.Insert(MustParsePrefix(s), i)
	}
	var got []string
	tr.Walk(func(p Prefix, _ int) bool {
		got = append(got, p.String())
		return true
	})
	want := []string{"10.0.0.0/8", "10.1.0.0/16", "172.16.0.0/12", "192.0.2.0/24"}
	if len(got) != len(want) {
		t.Fatalf("Walk visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Walk[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestTrieCoveredBy(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustParsePrefix("10.1.0.0/16"), 1)
	tr.Insert(MustParsePrefix("10.1.2.0/24"), 2)
	tr.Insert(MustParsePrefix("10.2.0.0/16"), 3)
	tr.Insert(MustParsePrefix("11.0.0.0/8"), 4)

	var got []int
	tr.CoveredBy(MustParsePrefix("10.0.0.0/8"), func(_ Prefix, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 3 {
		t.Fatalf("CoveredBy found %v, want 3 values", got)
	}
}

// TestTrieAgainstLinearScan cross-checks longest-prefix-match against a
// brute-force reference on random input.
func TestTrieAgainstLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	var tr Trie[int]
	var prefixes []Prefix
	for i := 0; i < 500; i++ {
		p := PrefixFrom(Addr(r.Uint32()), 8+r.Intn(17))
		if _, ok := tr.Get(p); ok {
			continue
		}
		tr.Insert(p, i)
		prefixes = append(prefixes, p)
	}
	for trial := 0; trial < 2000; trial++ {
		a := Addr(r.Uint32())
		bestBits, found := -1, false
		for _, p := range prefixes {
			if p.Contains(a) && p.Bits() > bestBits {
				bestBits, found = p.Bits(), true
			}
		}
		_, p, ok := tr.Lookup(a)
		if ok != found {
			t.Fatalf("Lookup(%v) ok=%v, reference=%v", a, ok, found)
		}
		if ok && p.Bits() != bestBits {
			t.Fatalf("Lookup(%v) matched /%d, reference /%d", a, p.Bits(), bestBits)
		}
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	var tr Trie[uint32]
	for i := 0; i < 100000; i++ {
		tr.Insert(PrefixFrom(Addr(r.Uint32()), 12+r.Intn(13)), uint32(i))
	}
	addrs := make([]Addr, 1024)
	for i := range addrs {
		addrs[i] = Addr(r.Uint32())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(addrs[i&1023])
	}
}
