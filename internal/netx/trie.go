package netx

// Trie is a binary radix trie mapping IPv4 prefixes to values, supporting
// exact-match insertion and longest-prefix-match lookup. It is the substrate
// for RouteViews-style prefix-to-AS mapping and for scope-containment
// queries over probe results.
//
// The zero value is an empty trie ready to use. Trie is not safe for
// concurrent mutation; concurrent lookups without mutation are safe.
type Trie[V any] struct {
	root *trieNode[V]
	size int
}

type trieNode[V any] struct {
	children [2]*trieNode[V]
	value    V
	hasValue bool
}

// Insert associates v with prefix p, replacing any existing value. It
// reports whether the prefix was newly inserted (false means replaced).
func (t *Trie[V]) Insert(p Prefix, v V) bool {
	if t.root == nil {
		t.root = &trieNode[V]{}
	}
	n := t.root
	addr := uint32(p.Addr())
	for i := 0; i < p.Bits(); i++ {
		b := (addr >> (31 - uint(i))) & 1
		if n.children[b] == nil {
			n.children[b] = &trieNode[V]{}
		}
		n = n.children[b]
	}
	fresh := !n.hasValue
	n.value, n.hasValue = v, true
	if fresh {
		t.size++
	}
	return fresh
}

// Len returns the number of prefixes stored.
func (t *Trie[V]) Len() int { return t.size }

// Lookup returns the value of the most specific prefix containing a, along
// with that prefix. ok is false if no stored prefix contains a.
func (t *Trie[V]) Lookup(a Addr) (v V, p Prefix, ok bool) {
	n := t.root
	addr := uint32(a)
	for i := 0; n != nil; i++ {
		if n.hasValue {
			v, p, ok = n.value, PrefixFrom(a, i), true
		}
		if i == 32 {
			break
		}
		n = n.children[(addr>>(31-uint(i)))&1]
	}
	return v, p, ok
}

// LookupPrefix returns the value of the most specific stored prefix that
// contains q entirely.
func (t *Trie[V]) LookupPrefix(q Prefix) (v V, p Prefix, ok bool) {
	n := t.root
	addr := uint32(q.Addr())
	for i := 0; n != nil && i <= q.Bits(); i++ {
		if n.hasValue {
			v, p, ok = n.value, PrefixFrom(q.Addr(), i), true
		}
		if i == q.Bits() {
			break
		}
		n = n.children[(addr>>(31-uint(i)))&1]
	}
	return v, p, ok
}

// Get returns the value stored exactly at prefix p.
func (t *Trie[V]) Get(p Prefix) (v V, ok bool) {
	n := t.root
	addr := uint32(p.Addr())
	for i := 0; i < p.Bits() && n != nil; i++ {
		n = n.children[(addr>>(31-uint(i)))&1]
	}
	if n == nil || !n.hasValue {
		return v, false
	}
	return n.value, true
}

// Walk visits every stored (prefix, value) pair in address order (and, for
// nested prefixes, least-specific first). If fn returns false, the walk
// stops.
func (t *Trie[V]) Walk(fn func(Prefix, V) bool) {
	var walk func(n *trieNode[V], addr uint32, depth int) bool
	walk = func(n *trieNode[V], addr uint32, depth int) bool {
		if n == nil {
			return true
		}
		if n.hasValue {
			if !fn(PrefixFrom(Addr(addr), depth), n.value) {
				return false
			}
		}
		if depth == 32 {
			return true
		}
		if !walk(n.children[0], addr, depth+1) {
			return false
		}
		return walk(n.children[1], addr|1<<(31-uint(depth)), depth+1)
	}
	walk(t.root, 0, 0)
}

// CoveredBy calls fn for every stored prefix contained inside p (including
// one stored exactly at p).
func (t *Trie[V]) CoveredBy(p Prefix, fn func(Prefix, V) bool) {
	n := t.root
	addr := uint32(p.Addr())
	for i := 0; i < p.Bits() && n != nil; i++ {
		n = n.children[(addr>>(31-uint(i)))&1]
	}
	if n == nil {
		return
	}
	var walk func(n *trieNode[V], addr uint32, depth int) bool
	walk = func(n *trieNode[V], addr uint32, depth int) bool {
		if n == nil {
			return true
		}
		if n.hasValue {
			if !fn(PrefixFrom(Addr(addr), depth), n.value) {
				return false
			}
		}
		if depth == 32 {
			return true
		}
		if !walk(n.children[0], addr, depth+1) {
			return false
		}
		return walk(n.children[1], addr|1<<(31-uint(depth)), depth+1)
	}
	walk(n, addr, p.Bits())
}
