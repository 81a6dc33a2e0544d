package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
)

// genClientMap builds a distinguishable artifact per generation: the hit
// count (and therefore every response body) differs across generations,
// so a torn read — evidence from one generation, provenance from
// another — cannot go unnoticed.
func genClientMap(t testing.TB, gen int) *ClientMap {
	t.Helper()
	camp := testCampaign()
	for _, hits := range camp.Hits {
		for _, h := range hits {
			h.Count += 100 * gen
		}
	}
	cm := Build(BuildInput{
		Meta:         Meta{Seed: uint64(gen), Scale: "reload", Passes: 4, Source: fmt.Sprintf("gen-%d", gen)},
		Campaign:     camp,
		RV:           testRV(t),
		ClientVolume: testVolume(),
	})
	if err := cm.Validate(); err != nil {
		t.Fatal(err)
	}
	return cm
}

// TestHotReloadConsistency is the satellite race test: concurrent
// lookups while the store swaps artifacts N times must drop zero
// queries, error zero queries, and every response must be consistent
// with exactly one loaded generation. Run under -race this also proves
// the swap itself is data-race-free.
func TestHotReloadConsistency(t *testing.T) {
	const (
		generations = 12
		readers     = 6
	)

	// Precompute every generation's expected responses up front: the DNS
	// wire template bytes and the HTTP body for a fixed query set.
	maps := make([]*ClientMap, generations+1)
	wantHTTP := make([]map[string]string, generations+1)
	wantDNS := make([]map[string]string, generations+1)
	httpPaths := []string{"/v1/ip/192.0.2.17", "/v1/ip/198.51.101.9", "/v1/as/64500", "/v1/summary"}
	dnsNames := []string{"17.2.0.192.clientmap", "9.101.51.198.clientmap", "64500.as.clientmap"}
	for g := 1; g <= generations; g++ {
		maps[g] = genClientMap(t, g)
		ix := NewIndex(maps[g], uint64(g), fmt.Sprintf("hash-gen-%d", g))
		wantHTTP[g] = map[string]string{}
		wantDNS[g] = map[string]string{}
		probe := &HTTPHandler{store: storeAt(ix), met: newServeMetrics(nil)}
		for _, p := range httpPaths {
			wantHTTP[g][p] = get(probe, p).Body.String()
		}
		dnsProbe := newTestDNSHandler(storeAt(ix))
		for _, name := range dnsNames {
			r := dnsProbe.ServeDNS(context.Background(), 0, dnswire.NewQuery(0, name, dnswire.TypeTXT))
			b, err := r.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			wantDNS[g][name] = string(b)
		}
	}

	// Live store under test, starting at generation 1.
	store := NewStore()
	store.Swap(maps[1], "hash-gen-1")
	httpH := &HTTPHandler{store: store, met: newServeMetrics(nil)}
	dnsH := newTestDNSHandler(store)

	var (
		stop     atomic.Bool
		queries  atomic.Int64
		failures atomic.Int64
	)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if (r+i)%2 == 0 {
					path := httpPaths[i%len(httpPaths)]
					req := httptest.NewRequest(http.MethodGet, path, nil)
					req.RemoteAddr = "127.0.0.1:1"
					w := httptest.NewRecorder()
					httpH.ServeHTTP(w, req)
					queries.Add(1)
					if w.Code != http.StatusOK {
						failures.Add(1)
						t.Errorf("reader %d: status %d for %s", r, w.Code, path)
						return
					}
					body := w.Body.String()
					if !matchesAnyGen(body, path, wantHTTP) {
						failures.Add(1)
						t.Errorf("reader %d: body matches no generation: %s", r, body)
						return
					}
				} else {
					name := dnsNames[i%len(dnsNames)]
					resp := dnsH.ServeDNS(context.Background(), netx.Addr(r), dnswire.NewQuery(0, name, dnswire.TypeTXT))
					queries.Add(1)
					if resp == nil || resp.RCode != dnswire.RCodeSuccess {
						failures.Add(1)
						t.Errorf("reader %d: dns %s failed: %+v", r, name, resp)
						return
					}
					b, err := resp.Marshal()
					if err != nil {
						failures.Add(1)
						t.Errorf("reader %d: marshal: %v", r, err)
						return
					}
					if !matchesAnyGen(string(b), name, wantDNS) {
						failures.Add(1)
						t.Errorf("reader %d: dns response matches no generation", r)
						return
					}
				}
			}
		}(r)
	}

	// Swap through the remaining generations under load, pacing each
	// swap on the query counter so every generation actually serves
	// traffic before being replaced.
	for g := 2; g <= generations; g++ {
		for target := queries.Load() + readers; queries.Load() < target && failures.Load() == 0; {
			time.Sleep(time.Millisecond)
		}
		ix := store.Swap(maps[g], fmt.Sprintf("hash-gen-%d", g))
		if ix.Generation != uint64(g) {
			t.Errorf("swap %d produced generation %d", g, ix.Generation)
		}
	}
	stop.Store(true)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d of %d queries failed or tore", failures.Load(), queries.Load())
	}
	if queries.Load() == 0 {
		t.Fatal("no queries issued")
	}
	if got := store.Current().Generation; got != generations {
		t.Fatalf("final generation %d, want %d", got, generations)
	}
}

// storeAt wraps a prebuilt index in a throwaway store (for computing
// expected responses without touching the store under test).
func storeAt(ix *Index) *Store {
	s := NewStore()
	s.cur.Store(ix)
	return s
}

// matchesAnyGen reports whether got is byte-identical to some
// generation's expected response for key — i.e. the response is
// consistent with exactly one loaded artifact, never a blend.
func matchesAnyGen(got, key string, want []map[string]string) bool {
	for g := 1; g < len(want); g++ {
		if want[g][key] == got {
			return true
		}
	}
	return false
}

func TestStoreLoadFileDedupesUnchanged(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "map.snap")
	cm := testClientMap(t)
	if _, err := WriteFile(path, cm); err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	ix1, changed, err := s.LoadFile(path)
	if err != nil || !changed {
		t.Fatalf("first load: changed=%v err=%v", changed, err)
	}
	// Re-reading the identical file must not bump the generation.
	ix2, changed, err := s.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if changed || ix2.Generation != ix1.Generation {
		t.Fatalf("unchanged artifact bumped generation: %d → %d (changed=%v)", ix1.Generation, ix2.Generation, changed)
	}
	// A genuinely different artifact does.
	if _, err := WriteFile(path, genClientMap(t, 3)); err != nil {
		t.Fatal(err)
	}
	ix3, changed, err := s.LoadFile(path)
	if err != nil || !changed || ix3.Generation != ix1.Generation+1 {
		t.Fatalf("changed artifact: gen %d changed=%v err=%v", ix3.Generation, changed, err)
	}
}

func TestStoreLoadFileErrorKeepsServing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "map.snap")
	if _, err := WriteFile(path, testClientMap(t)); err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	if _, _, err := s.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	before := s.Current()

	// Corrupt the file on disk; reload must fail and leave the published
	// index untouched.
	if err := corruptFile(path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadFile(path); err == nil {
		t.Fatal("corrupt artifact loaded")
	}
	if s.Current() != before {
		t.Fatal("failed reload replaced the serving index")
	}
}
