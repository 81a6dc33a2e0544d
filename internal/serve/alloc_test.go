package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
)

// TestDNSAppendAllocs is the alloc-regression gate for the DNS answer
// path as the socket loops drive it: a cache hit allocates nothing, and a
// miss — index lookup, reply built in place, cache insert — at most the
// cache's copy of the reply and its map slot.
func TestDNSAppendAllocs(t *testing.T) {
	h, _ := testDNSHandler(t)
	buf := make([]byte, 0, 512)
	var q dnswire.Message

	hot := []struct {
		name string
		qt   dnswire.Type
	}{
		{"17.2.0.192.clientmap", dnswire.TypeA}, {"17.2.0.192.clientmap", dnswire.TypeTXT},
		{"1.102.51.198.clientmap", dnswire.TypeA}, {"64500.as.clientmap", dnswire.TypeTXT}, {"clientmap", dnswire.TypeSOA},
	}
	i := 0
	hit := func() {
		c := hot[i%len(hot)]
		i++
		q.SetQuery(uint16(i), c.name, c.qt)
		if buf = h.AppendDNS(buf[:0], 0, &q); len(buf) == 0 {
			t.Fatal("no reply")
		}
	}
	for range hot {
		hit() // fill the cache
	}
	if allocs := testing.AllocsPerRun(1000, hit); allocs != 0 {
		t.Errorf("cache hit allocates %.2f per query, want 0", allocs)
	}

	// Misses: names never asked before, active and not, A and TXT, more
	// than the cache has slots, so most of them evict.
	const runs = 2 * dnsCacheShards * dnsCacheCapacity
	names := make([]string, runs+1)
	for i := range names {
		names[i] = FormatReverseName(netx.AddrFrom4(192, 1+byte(i>>16), byte(i>>8), byte(i)), DefaultZone)
	}
	i = 0
	miss := func() {
		qt := dnswire.TypeA
		if i%4 == 0 {
			qt = dnswire.TypeTXT
		}
		q.SetQuery(uint16(i), names[i], qt)
		i++
		if buf = h.AppendDNS(buf[:0], 0, &q); len(buf) == 0 {
			t.Fatal("no reply")
		}
	}
	allocs := testing.AllocsPerRun(runs, miss)
	if allocs > 2 {
		t.Errorf("cache miss allocates %.2f per query, want <= 2", allocs)
	}
	if hits := h.met.dnsCacheHits.Value(); hits != 1000+1 {
		t.Errorf("%d cache hits, want exactly the hit loop's 1001: a miss-loop name repeated", hits)
	}
}

// TestHTTPBodyAllocs gates the JSON builders: with a buffer to append
// into, a body costs no allocation beyond at most one.
func TestHTTPBodyAllocs(t *testing.T) {
	ix := testIndex(t)
	buf := make([]byte, 0, 1024)
	for _, path := range []string{"/v1/ip/192.0.2.17", "/v1/ip/198.51.102.1", "/v1/ip/8.8.8.8", "/v1/as/64500", "/v1/as/65000", "/v1/summary"} {
		allocs := testing.AllocsPerRun(1000, func() {
			var code int
			if buf, code = appendAnswer(buf[:0], ix, path); code != 200 {
				t.Fatalf("%s: status %d", path, code)
			}
		})
		if allocs > 1 {
			t.Errorf("%s: body build allocates %.2f, want <= 1", path, allocs)
		}
	}
}

// TestDNSCacheMemoryBudget fills the daemon-sized cache (16 × 4096) to
// capacity and keeps going — four times its size in never-repeating
// in-zone names over a generated artifact, a quarter of them TXT — and
// holds the live heap the cache retains to 200 bytes an entry, with no
// growth over the second half of the inserts: the daemon's memory is the
// index plus a fixed cache, whatever the name churn.
func TestDNSCacheMemoryBudget(t *testing.T) {
	const slots = dnsCacheShards * dnsCacheCapacity
	cm := randomMap(rand.New(rand.NewSource(3)), 2000)
	for i := range cm.Scopes {
		// randomMap's longest names and widest floats overflow a TXT string.
		cm.Scopes[i].Confidence = 0.5
		for j := range cm.Scopes[i].PoPs {
			cm.Scopes[i].PoPs[j].PoP = fmt.Sprintf("pop%d", j)
		}
	}
	store := NewStore()
	store.Swap(cm, "budgethash0001")
	liveHeap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	base := liveHeap()
	h := newTestDNSHandler(store)

	buf := make([]byte, 0, 512)
	var q dnswire.Message
	next := uint32(0)
	insert := func(n int) int64 {
		for ; n > 0; n-- {
			// 10.0.0.0/14, where the artifact's scopes lie, every host
			// address once: 262 144 /24-and-host names, a fifth active.
			a := netx.AddrFrom4(10, byte(next>>16)&3, byte(next>>8), byte(next))
			qt := dnswire.TypeA
			if next%4 == 0 {
				qt = dnswire.TypeTXT
			}
			next++
			q.SetQuery(uint16(next), FormatReverseName(a, DefaultZone), qt)
			if buf = h.AppendDNS(buf[:0], 0, &q); len(buf) == 0 {
				t.Fatal("no reply")
			}
		}
		return liveHeap() - base
	}
	half := insert(2 * slots)
	full := insert(2 * slots)
	runtime.KeepAlive(h)
	if h.cache.Len() != slots {
		t.Fatalf("cache holds %d entries, want %d", h.cache.Len(), slots)
	}
	if hits := h.met.dnsCacheHits.Value(); hits != 0 {
		t.Fatalf("%d cache hits: names repeated", hits)
	}
	t.Logf("live heap per entry: %d B after %d inserts, %d B after %d", half/slots, 2*slots, full/slots, 4*slots)
	if full/slots > 200 {
		t.Errorf("cache retains %d B per entry, want <= 200", full/slots)
	}
	if full > half+half/50 {
		t.Errorf("cache grew from %d to %d bytes over the last %d inserts at capacity", half, full, 2*slots)
	}
}

// TestSOASerialFollowsPinnedIndex is the regression test for a
// generation blend: a reload landing between a query pinning its index
// and the reply being built must not put the new generation's serial
// into a reply built from — and cached under — the old one.
func TestSOASerialFollowsPinnedIndex(t *testing.T) {
	h, store := testDNSHandler(t)
	pinned := store.Current()
	store.Swap(genClientMap(t, 2), "hash-gen-2") // the reload, after the pin

	for _, c := range []struct {
		name string
		qt   dnswire.Type
	}{
		{"clientmap", dnswire.TypeSOA}, {"1.1.168.192.clientmap", dnswire.TypeA}, {"17.2.0.192.clientmap", dnswire.TypeAAAA},
	} {
		var w dnswire.Builder
		w.Begin(nil)
		if err := w.Question(c.name, c.qt, dnswire.ClassINET); err != nil {
			t.Fatal(err)
		}
		rcode, err := h.answer(&w, pinned, c.name, c.qt)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := dnswire.Unmarshal(w.Finish(dnswire.Header{Authoritative: true, RCode: rcode}))
		if err != nil {
			t.Fatal(err)
		}
		rrs := append(resp.Answers, resp.Authority...)
		if len(rrs) != 1 {
			t.Fatalf("%s/%v: %d records, want the SOA alone", c.name, c.qt, len(rrs))
		}
		if soa := rrs[0].Data.(dnswire.SOA); uint64(soa.Serial) != pinned.Generation {
			t.Errorf("%s/%v: SOA serial %d in a reply built from generation %d", c.name, c.qt, soa.Serial, pinned.Generation)
		}
	}
	if got := store.Current().Generation; got == pinned.Generation {
		t.Fatalf("store still at generation %d: the swap did not happen", got)
	}
}
