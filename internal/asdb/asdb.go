// Package asdb models the ASdb classification database (Ziv et al., IMC
// 2021), which the paper uses to characterize the ASes its techniques find
// but APNIC misses: of those, ASdb categorized 92.7%, with ISPs, hosting
// providers and schools as the headline groups.
package asdb

import (
	"clientmap/internal/world"
)

// DB maps ASNs to categories. Coverage is deliberately incomplete,
// matching ASdb's 92.7% categorization rate.
type DB struct {
	categories map[uint32]world.Category
}

// DefaultCoverage is the fraction of ASes ASdb categorizes.
const DefaultCoverage = 0.927

// FromWorld derives the database from ground truth, dropping a seeded
// random (1 - coverage) fraction of ASes as "uncategorized".
func FromWorld(w *world.World, coverage float64) *DB {
	if coverage <= 0 || coverage > 1 {
		coverage = DefaultCoverage
	}
	db := &DB{categories: make(map[uint32]world.Category, len(w.ASes))}
	for _, as := range w.ASes {
		if w.Cfg.Seed.HashUnit("asdb/"+itoa(as.ASN)) < coverage {
			db.categories[as.ASN] = as.Category
		}
	}
	return db
}

func itoa(v uint32) string {
	var b [10]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return string(b[i:])
}

// FromCategories builds a database directly from an ASN → category map,
// the constructor the snapshot codec restores checkpoints through.
func FromCategories(m map[uint32]world.Category) *DB {
	db := &DB{categories: make(map[uint32]world.Category, len(m))}
	for asn, c := range m {
		db.categories[asn] = c
	}
	return db
}

// Range calls fn for every categorized AS until fn returns false.
// Iteration order is unspecified; callers needing determinism must sort.
func (db *DB) Range(fn func(asn uint32, c world.Category) bool) {
	for asn, c := range db.categories {
		if !fn(asn, c) {
			return
		}
	}
}

// Len returns the number of categorized ASes.
func (db *DB) Len() int { return len(db.categories) }
