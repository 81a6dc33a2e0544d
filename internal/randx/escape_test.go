package randx_test

import (
	"testing"

	"clientmap/internal/randx"
)

// TestStackKeysDoNotEscape: hot paths in other packages build hash keys
// in stack scratch, so hashing must not make the scratch escape, or every
// probe pays a heap allocation per key. It lives in an external test
// package because escape analysis can see through a call inside randx
// that it cannot see through from another package.
func TestStackKeysDoNotEscape(t *testing.T) {
	seed := randx.Seed(99)
	var sink uint64
	allocs := testing.AllocsPerRun(1000, func() {
		var kb [64]byte
		k := append(kb[:0], "probe/0/fra/example.com/10.0.0.0/16"...)
		sink += seed.Hash64B(k) + randx.FNV64a(k) + seed.KeyState(k[:8]).Extend(k[8:]).Hash64()
	})
	if allocs != 0 {
		t.Errorf("hashing a stack-built key allocates %.1f per run, want 0", allocs)
	}
	_ = sink
}
