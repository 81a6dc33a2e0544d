// Package routeviews provides the prefix-to-AS mapping the analysis uses
// to aggregate /24 results to ASes and to count each AS's announced /24s
// (the denominator of Figure 4). It mirrors the CAIDA RouteViews
// prefix2as dataset: a longest-prefix-match table derived from BGP
// announcements, with a text serialization compatible in spirit with the
// published files.
package routeviews

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"clientmap/internal/netx"
	"clientmap/internal/world"
)

// Table maps prefixes to origin ASNs.
type Table struct {
	trie netx.Trie[uint32]
	// announced24 counts announced /24s per ASN.
	announced24 map[uint32]int
}

// New returns an empty table.
func New() *Table {
	return &Table{announced24: make(map[uint32]int)}
}

// FromWorld derives the table from the world's BGP ground truth (which
// includes the synthetic Google AS and its egress /16).
func FromWorld(w *world.World) *Table {
	t := New()
	w.Announcements().Walk(func(p netx.Prefix, asIdx int32) bool {
		t.Add(p, w.ASes[asIdx].ASN)
		return true
	})
	return t
}

// Add inserts an announcement.
func (t *Table) Add(p netx.Prefix, asn uint32) {
	if t.trie.Insert(p, asn) {
		t.announced24[asn] += p.NumSlash24s()
	}
}

// ASNOf returns the origin ASN for an address.
func (t *Table) ASNOf(a netx.Addr) (uint32, bool) {
	asn, _, ok := t.trie.Lookup(a)
	return asn, ok
}

// ASNOfPrefix returns the origin ASN of the most specific announcement
// containing p.
func (t *Table) ASNOfPrefix(p netx.Prefix) (uint32, bool) {
	asn, _, ok := t.trie.LookupPrefix(p)
	return asn, ok
}

// Announced24s returns how many /24s the ASN announces.
func (t *Table) Announced24s(asn uint32) int { return t.announced24[asn] }

// ASNs returns all origin ASNs in ascending order.
func (t *Table) ASNs() []uint32 {
	out := make([]uint32, 0, len(t.announced24))
	for asn := range t.announced24 {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of announcements.
func (t *Table) Len() int { return t.trie.Len() }

// Walk visits every announcement in address order (nested announcements
// least-specific first) until fn returns false — the iteration the
// serving-artifact export flattens the table with.
func (t *Table) Walk(fn func(netx.Prefix, uint32) bool) {
	t.trie.Walk(fn)
}

// Save writes the table in the prefix2as text format:
// "address<TAB>length<TAB>asn", one announcement per line.
func (t *Table) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var err error
	t.trie.Walk(func(p netx.Prefix, asn uint32) bool {
		_, err = fmt.Fprintf(bw, "%s\t%d\t%d\n", p.Addr(), p.Bits(), asn)
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
