package cacheprobe

import "clientmap/internal/netx"

// LowerBound24Count is the minimum activity consistent with the hits: one
// active /24 per non-overlapping hit prefix (Figure 4's lower bound).
// Hit prefixes nested inside a broader hit prefix do not add.
func (c *Campaign) LowerBound24Count() int {
	var t netx.Trie[bool]
	for _, p := range c.ActiveScopes() {
		t.Insert(p, true)
	}
	// Count only prefixes with no stored ancestor.
	count := 0
	t.Walk(func(p netx.Prefix, _ bool) bool {
		if p.Bits() > 0 {
			parent := netx.PrefixFrom(p.Addr(), p.Bits()-1)
			for bits := parent.Bits(); bits >= 0; bits-- {
				if _, ok := t.Get(netx.PrefixFrom(p.Addr(), bits)); ok {
					return true // covered by a broader hit
				}
			}
		}
		count++
		return true
	})
	return count
}
