package asdb

import (
	"testing"

	"clientmap/internal/world"
)

func testWorld(t testing.TB) *world.World {
	t.Helper()
	w, err := world.Generate(world.Config{Seed: 81, Scale: world.ScaleSmall, Params: world.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCoverageNearTarget(t *testing.T) {
	w := testWorld(t)
	db := FromWorld(w, DefaultCoverage)
	frac := float64(db.Len()) / float64(len(w.ASes))
	if frac < 0.88 || frac > 0.97 {
		t.Errorf("coverage %.3f, want ~%.3f", frac, DefaultCoverage)
	}
}

func TestCategoriesMatchGroundTruth(t *testing.T) {
	w := testWorld(t)
	db := FromWorld(w, 1.0)
	for _, as := range w.ASes {
		c, ok := db.Category(as.ASN)
		if !ok {
			t.Fatalf("AS%d missing at full coverage", as.ASN)
		}
		if c != as.Category {
			t.Fatalf("AS%d category %s, truth %s", as.ASN, c, as.Category)
		}
	}
}

func TestBreakdown(t *testing.T) {
	w := testWorld(t)
	db := FromWorld(w, DefaultCoverage)
	counts := make(map[world.Category]int)
	uncategorized := 0
	for _, as := range w.ASes {
		if c, ok := db.Category(as.ASN); ok {
			counts[c]++
		} else {
			uncategorized++
		}
	}
	if uncategorized == 0 {
		t.Error("no uncategorized ASes at 92.7% coverage")
	}
	if counts[world.CategoryISP] == 0 {
		t.Error("no ISPs in breakdown")
	}
}

func TestInvalidCoverageFallsBack(t *testing.T) {
	w := testWorld(t)
	db := FromWorld(w, -1)
	frac := float64(db.Len()) / float64(len(w.ASes))
	if frac < 0.85 {
		t.Errorf("fallback coverage %.3f", frac)
	}
}

func TestCategoriesList(t *testing.T) {
	w := testWorld(t)
	db := FromWorld(w, 1.0)
	cats := map[world.Category]bool{}
	db.Range(func(_ uint32, c world.Category) bool {
		cats[c] = true
		return true
	})
	if len(cats) < 4 {
		t.Errorf("only %d categories present", len(cats))
	}
}

// Category returns the category recorded for asn, if categorized.
func (db *DB) Category(asn uint32) (world.Category, bool) {
	c, ok := db.categories[asn]
	return c, ok
}
