package serve

import (
	"encoding/binary"
	"sync"

	"clientmap/internal/randx"
)

// Cache is the sharded response cache in front of the DNS answer path. It
// stores final response bytes keyed by (generation, query key): entries
// from an older generation never answer a newer index (lookups compare
// generations and treat mismatches as misses), so a hot reload
// implicitly invalidates the whole cache without a stop-the-world sweep.
// Stale entries are overwritten in place on the next store of their key.
//
// Each shard is a mutex-protected ring of slots in insertion order — FIFO
// eviction bounded by capacity — and a map from key hash to slot. A slot
// owns one buffer holding its key and value back to back and hands it to
// the next tenant that fits, so a full cache costs its bytes and little
// more: no key string, no value header, nothing for the collector to walk
// but one pointer per slot. Values are copied in and copied out.
type Cache[V ~[]byte] struct {
	shards []cacheShard
	mask   uint64
	cap    int
}

type cacheShard struct {
	mu    sync.Mutex
	slots []cacheSlot // grows to capacity; from then on slots[head] is the oldest
	head  int
	index map[uint64]uint32 // key hash → slot
}

type cacheSlot struct {
	gen uint64
	buf []byte // the key's length in two bytes, the key, the value
}

func (sl *cacheSlot) split() (key, val []byte) {
	n := 2 + int(binary.BigEndian.Uint16(sl.buf))
	return sl.buf[2:n], sl.buf[n:]
}

func (sl *cacheSlot) set(gen uint64, key, val []byte) {
	n := 2 + len(key) + len(val)
	// A buffer more than twice the size needed is let go, or every slot
	// would creep up to the largest value it ever held.
	if cap(sl.buf) < n || cap(sl.buf) > 2*n {
		sl.buf = make([]byte, 0, n)
	}
	b := binary.BigEndian.AppendUint16(sl.buf[:0], uint16(len(key)))
	b = append(b, key...)
	sl.buf = append(b, val...)
	sl.gen = gen
}

// NewCache returns a cache with the given shard count (rounded up to a
// power of two, minimum 1) and per-shard entry capacity (minimum 1).
func NewCache[V ~[]byte](shards, capacity int) *Cache[V] {
	n := 1
	for n < shards {
		n *= 2
	}
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache[V]{shards: make([]cacheShard, n), mask: uint64(n - 1), cap: capacity}
	for i := range c.shards {
		c.shards[i].index = make(map[uint64]uint32)
	}
	return c
}

// Get returns a copy of the cached response for key under gen. A hit
// from a different generation is a miss.
func (c *Cache[V]) Get(gen uint64, key string) (V, bool) {
	val, ok := c.appendTo(nil, gen, []byte(key))
	return V(val), ok
}

// appendTo is Get appending to dst. key may lie in dst's spare capacity:
// it is compared before anything is written.
func (c *Cache[V]) appendTo(dst []byte, gen uint64, key []byte) ([]byte, bool) {
	h := randx.FNV64a(key)
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[h]
	if !ok {
		return dst, false
	}
	k, val := s.slots[i].split()
	if s.slots[i].gen != gen || string(k) != string(key) {
		return dst, false
	}
	return append(dst, val...), true
}

// Put stores a copy of val for key under gen, evicting the shard's oldest
// entry once it is full.
func (c *Cache[V]) Put(gen uint64, key string, val V) { c.put(gen, []byte(key), val) }

func (c *Cache[V]) put(gen uint64, key, val []byte) {
	if len(key) > 0xFFFF {
		return // does not fit the slot's length prefix; not worth caching
	}
	h := randx.FNV64a(key)
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[h]
	switch {
	case ok:
		// The key's own slot, rewritten in place — or another key's with
		// the same 64-bit hash, which loses its entry to this one.
	case len(s.slots) < c.cap:
		i = uint32(len(s.slots))
		s.slots = append(s.slots, cacheSlot{})
	default:
		i = uint32(s.head)
		s.head = (s.head + 1) % c.cap
		victim, _ := s.slots[i].split()
		delete(s.index, randx.FNV64a(victim))
	}
	s.index[h] = i
	s.slots[i].set(gen, key, val)
}
