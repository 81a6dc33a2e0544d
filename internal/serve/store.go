package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Store publishes the daemon's current Index. Swapping in a new artifact
// is one atomic pointer store; readers grab the pointer once per query
// and keep it, so a reload never tears a response — each response is
// computed entirely against one generation.
type Store struct {
	cur atomic.Pointer[Index]
	gen atomic.Uint64

	// reloadMu serializes swaps (reload is rare and cheap to serialize;
	// lookups never touch it).
	reloadMu sync.Mutex
	// lastHash dedupes reloads: re-reading an unchanged artifact file
	// must not bump the generation or invalidate the response cache.
	lastHash string
}

// NewStore returns an empty store; Current returns nil until the first
// LoadFile.
func NewStore() *Store { return &Store{} }

// Current returns the published index, or nil before the first load.
func (s *Store) Current() *Index { return s.cur.Load() }

func (s *Store) swapLocked(cm *ClientMap, hash string) *Index {
	ix := NewIndex(cm, s.gen.Add(1), hash)
	s.lastHash = hash
	s.cur.Store(ix)
	return ix
}

// LoadFile reads, validates, compiles and publishes the artifact at
// path. Re-loading a byte-identical artifact is a no-op that returns the
// already-published index (changed reports whether a swap happened). Any
// error leaves the currently published index serving.
func (s *Store) LoadFile(path string) (ix *Index, changed bool, err error) {
	cm, hash, err := ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("serve: loading %s: %w", path, err)
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if cur := s.cur.Load(); cur != nil && s.lastHash == hash {
		return cur, false, nil
	}
	return s.swapLocked(cm, hash), true, nil
}
