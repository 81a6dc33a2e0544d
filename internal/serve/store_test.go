package serve

import (
	"os"
	"testing"
)

// corruptFile flips a byte in the middle of the file.
func corruptFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	data[len(data)/2] ^= 0xFF
	return os.WriteFile(path, data, 0o644)
}

func TestStoreEmpty(t *testing.T) {
	s := NewStore()
	if s.Current() != nil {
		t.Fatal("empty store published an index")
	}
}

func TestStoreSwapGenerations(t *testing.T) {
	s := NewStore()
	cm := testClientMap(t)
	ix1 := s.Swap(cm, "h1")
	ix2 := s.Swap(cm, "h2")
	if ix1.Generation != 1 || ix2.Generation != 2 {
		t.Fatalf("generations %d, %d", ix1.Generation, ix2.Generation)
	}
	if s.Current() != ix2 {
		t.Fatal("Current is not the last swap")
	}
}

// Swap compiles cm under the next generation and publishes it, returning
// the new index.
func (s *Store) Swap(cm *ClientMap, hash string) *Index {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.swapLocked(cm, hash)
}
