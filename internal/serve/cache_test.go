package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestCacheGetPut(t *testing.T) {
	c := NewCache[[]byte](4, 8)
	if _, ok := c.Get(1, "k"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, "k", []byte("v1"))
	got, ok := c.Get(1, "k")
	if !ok || string(got) != "v1" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	// A different generation is a miss, even for a present key.
	if _, ok := c.Get(2, "k"); ok {
		t.Fatal("stale generation served")
	}
	// Storing under the new generation replaces in place.
	c.Put(2, "k", []byte("v2"))
	if got, _ := c.Get(2, "k"); string(got) != "v2" {
		t.Fatalf("after regen Put, Get = %q", got)
	}
	if _, ok := c.Get(1, "k"); ok {
		t.Fatal("old generation still served after overwrite")
	}
}

// TestCacheHitsPreserveBytes is the satellite property: a cached response
// must be byte-identical to the value stored cold — the cache never
// rewrites, truncates or shares-and-mutates entries.
func TestCacheHitsPreserveBytes(t *testing.T) {
	c := NewCache[[]byte](8, 128)
	r := rand.New(rand.NewSource(42))
	cold := map[string][]byte{}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", r.Intn(100))
		if want, ok := cold[key]; ok {
			if got, hit := c.Get(7, key); hit && !bytes.Equal(got, want) {
				t.Fatalf("cache hit for %s changed bytes: %q vs %q", key, got, want)
			}
			continue
		}
		body := make([]byte, 16+r.Intn(64))
		r.Read(body)
		cold[key] = body
		c.Put(7, key, body)
	}
	for key, want := range cold {
		got, hit := c.Get(7, key)
		if hit && !bytes.Equal(got, want) {
			t.Fatalf("final sweep: %s changed bytes", key)
		}
	}
}

// TestCacheEvictionRespectsCapacity is the satellite property: no shard
// ever exceeds its configured capacity, for arbitrary insertion orders.
func TestCacheEvictionRespectsCapacity(t *testing.T) {
	const capacity = 16
	for trial := 0; trial < 5; trial++ {
		c := NewCache[[]byte](4, capacity)
		r := rand.New(rand.NewSource(int64(trial)))
		for i := 0; i < 5000; i++ {
			c.Put(uint64(r.Intn(3)), fmt.Sprintf("k%d", r.Intn(2000)), []byte{byte(i)})
			if i%97 == 0 {
				for s, n := range c.ShardLens() {
					if n > capacity {
						t.Fatalf("trial %d: shard %d holds %d > cap %d", trial, s, n, capacity)
					}
				}
			}
		}
		total := 0
		for _, n := range c.ShardLens() {
			if n > capacity {
				t.Fatalf("trial %d: final shard over capacity", trial)
			}
			total += n
		}
		if total != c.Len() {
			t.Fatalf("Len %d != sum of shards %d", c.Len(), total)
		}
	}
}

func TestCacheEvictionKeepsNewestKey(t *testing.T) {
	// FIFO: after overflowing a 1-shard/2-entry cache, the newest key
	// must survive.
	c := NewCache[[]byte](1, 2)
	c.Put(1, "a", []byte{1})
	c.Put(1, "b", []byte{2})
	c.Put(1, "c", []byte{3})
	if _, ok := c.Get(1, "a"); ok {
		t.Error("oldest entry survived eviction")
	}
	if v, ok := c.Get(1, "b"); !ok || v[0] != 2 {
		t.Error("second-oldest entry evicted early")
	}
	if v, ok := c.Get(1, "c"); !ok || v[0] != 3 {
		t.Error("newest entry evicted")
	}
	// A rewritten key keeps its place in the queue: "b" is still next out.
	c.Put(1, "b", []byte{4})
	c.Put(1, "d", []byte{5})
	if _, ok := c.Get(1, "b"); ok {
		t.Error("rewriting an entry moved it to the back of the queue")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

// TestCacheConcurrent hammers one small cache from several goroutines.
// Every value is its key repeated, so a hit that returns anything else —
// torn, stale, or a slot's next tenant — shows; and each hit is checked
// again after further Puts have gone through the same shards, because a
// Get result must never alias memory a later Put overwrites.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache[[]byte](2, 16)
	value := func(key string) []byte { return bytes.Repeat([]byte(key), 1+len(key)%3) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3000; i++ {
				key := fmt.Sprintf("k%d", r.Intn(200))
				gen := uint64(r.Intn(4))
				if r.Intn(2) == 0 {
					c.Put(gen, key, value(key))
					continue
				}
				v, ok := c.Get(gen, key)
				if !ok {
					continue
				}
				for j := 0; j < 4; j++ {
					other := fmt.Sprintf("k%d", r.Intn(200))
					c.Put(gen, other, value(other))
				}
				if !bytes.Equal(v, value(key)) {
					t.Errorf("key %s returned %q", key, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCacheShardRounding(t *testing.T) {
	c := NewCache[[]byte](3, 0) // rounds to 4 shards, capacity clamps to 1
	if len(c.shards) != 4 || c.cap != 1 {
		t.Fatalf("NewCache(3, 0) = %d shards cap %d", len(c.shards), c.cap)
	}
}

// Len returns the total number of cached entries across shards.
func (c *Cache[V]) Len() int {
	total := 0
	for _, n := range c.ShardLens() {
		total += n
	}
	return total
}

// ShardLens returns each shard's entry count — the capacity property the
// eviction tests assert on.
func (c *Cache[V]) ShardLens() []int {
	out := make([]int, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out[i] = len(s.slots)
		s.mu.Unlock()
	}
	return out
}
