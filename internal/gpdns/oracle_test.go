package gpdns

import (
	"fmt"
	"math"
	"testing"
	"time"

	"clientmap/internal/authdns"
	"clientmap/internal/clockx"
	"clientmap/internal/domains"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
	"clientmap/internal/traffic"
)

// oracleLookup is LazyFill.Lookup computed from scratch on every call,
// with no memo: the natural scope from the authoritative's policy, each
// client /24 routed afresh, the rates summed in a map per PoP, and the
// sampler key formatted as a string.
func oracleLookup(lf *LazyFill, popIdx, poolIdx int, name string, src netx.Prefix, now time.Time) (entry, bool) {
	d, ok := domains.ByName(name)
	if !ok {
		return entry{}, false
	}
	if !d.SupportsECS {
		return entry{name: name, addr: lazyAddr(name), scope: netx.PrefixFrom(0, 0), expiry: now.Add(d.TTL / 2)}, true
	}
	m := lf.model
	natural := authdns.NaturalScope(m.W.Cfg.Seed, d, src)
	perPoP := map[int]float64{}
	var lon, rateSum, diurnSum float64
	first := true
	natural.Slash24s(func(p netx.Slash24) bool {
		pi, ok := m.W.PrefixInfoOf(p)
		if !ok || !pi.HasClients() {
			return true
		}
		if first {
			lon, first = pi.Coord.Lon, false
		}
		if rate := m.GoogleDNSRate(pi, d); rate > 0 {
			perPoP[m.Router.PoPForClient(p, pi.Coord)] += rate
			rateSum += rate
			diurnSum += rate * float64(pi.Diurnality)
		}
		return true
	})
	diurn := 1.0
	if rateSum > 0 {
		diurn = diurnSum / rateSum
	}
	rate := perPoP[popIdx]
	if rate <= 0 {
		return entry{}, false
	}
	key := fmt.Sprintf("gpdns/%s/%s/%d/%d", d.Name, natural, popIdx, poolIdx)
	arrival, ok := lastEventBefore(m.W.Cfg.Seed, key, rate/float64(lf.pools), lon, diurn, now, d.TTL)
	if !ok {
		return entry{}, false
	}
	scope := lf.cachedScope(&d, natural, popIdx, poolIdx, arrival)
	if scope.Bits() > src.Bits() {
		return entry{}, false
	}
	return entry{name: name, addr: lazyAddr(name), scope: scope, expiry: arrival.Add(d.TTL)}, true
}

// lastEventBefore is the traffic model's cache-fill sampler computed
// from the whole string key: each bucket's "traffic/ev/<key>/<bucket>"
// and "traffic/evt/<key>/<bucket>" draws hashed from the seed, with no
// prefix state.
func lastEventBefore(seed randx.Seed, key string, rate, lon, diurn float64, t time.Time, window time.Duration) (time.Time, bool) {
	if rate <= 0 || window <= 0 {
		return time.Time{}, false
	}
	bucket := t.UnixNano() / int64(window)
	for _, b := range [2]int64{bucket, bucket - 1} {
		bStart := time.Unix(0, b*int64(window))
		mean := rate * window.Seconds() * traffic.DiurnalWeighted(bStart.Add(window/2), lon, diurn)
		if seed.HashUnit(fmt.Sprintf("traffic/ev/%s/%d", key, b)) >= 1-math.Exp(-mean) {
			continue
		}
		evt := bStart.Add(time.Duration(seed.HashUnit(fmt.Sprintf("traffic/evt/%s/%d", key, b)) * float64(window)))
		if b == bucket && evt.After(t) {
			continue
		}
		if !evt.Before(t.Add(-window)) {
			return evt, true
		}
	}
	return time.Time{}, false
}

// oracleCases is the concurrency test's case set plus each case again
// from a /32 source inside it, at every PoP a tenth of the time so that
// lines are read at PoPs their clients do not reach.
func oracleCases(t *testing.T) []probeCase {
	cases := concurrentCases(t)
	n := len(cases)
	for i, c := range cases[:n] {
		c.src = netx.PrefixFrom(c.src.Addr()+netx.Addr(1+i%254), 32)
		if i%10 == 0 {
			c.pop = i % 22
		}
		cases = append(cases, c)
	}
	return cases
}

// checkOracle requires Lookup to equal the oracle on every case and
// reports how many hit.
func checkOracle(t *testing.T, lf *LazyFill, cases []probeCase) int {
	t.Helper()
	hits := 0
	for i, c := range cases {
		got, gotOK := lf.Lookup(c.pop, c.pool, c.name, c.src, c.at)
		want, wantOK := oracleLookup(lf, c.pop, c.pool, c.name, c.src, c.at)
		if gotOK != wantOK || got != want {
			t.Fatalf("case %d (%s %v pop %d pool %d): Lookup = %+v %v, oracle = %+v %v", i, c.name, c.src, c.pop, c.pool, got, gotOK, want, wantOK)
		}
		if gotOK {
			hits++
		}
	}
	return hits
}

// TestLazyFillMatchesOracle holds the memoized lazy fill — one line per
// (domain, clamped source), one route per client /24 — to the from-scratch
// oracle, on a fresh memo, on a warm one, and after the world mutates
// and the memo is invalidated.
func TestLazyFillMatchesOracle(t *testing.T) {
	cases := oracleCases(t)
	srv, model, _ := lazySetup(t, 31)
	lf := srv.LazyFill()
	hits := checkOracle(t, lf, cases)
	if hits == 0 || hits == len(cases) {
		t.Fatalf("%d/%d lookups hit; the test needs both outcomes", hits, len(cases))
	}
	checkOracle(t, lf, cases) // every line warm

	// Churn: every third client /24 the cases touch goes dark, and the
	// ASes of the rest shift their Google Public DNS share.
	seen := map[netx.Slash24]bool{}
	for _, c := range cases {
		p := c.src.FirstSlash24()
		pi, ok := model.W.PrefixInfoOf(p)
		if !ok || seen[p] {
			continue
		}
		seen[p] = true
		if len(seen)%3 == 0 {
			model.W.Realloc(p, pi.ASIdx, 0, 0, 0, -1)
		} else {
			model.W.SetGoogleDNSShare(pi.ASIdx, model.W.ASes[pi.ASIdx].GoogleDNSShare*1.7)
		}
	}
	stale := 0
	for _, c := range cases {
		got, gotOK := lf.Lookup(c.pop, c.pool, c.name, c.src, c.at)
		want, wantOK := oracleLookup(lf, c.pop, c.pool, c.name, c.src, c.at)
		if gotOK != wantOK || got != want {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("the mutation changed no answer; it does not exercise Invalidate")
	}
	lf.Invalidate()
	checkOracle(t, lf, cases)
}

// BenchmarkLazyFillLookup times one lazy-fill lookup on a warm memo over
// the concurrency test's case set — the per-probe cost of the
// background-traffic model once pass 0 has filled it.
func BenchmarkLazyFillLookup(b *testing.B) {
	srv, model, router := lazySetup(b, 31)
	lf := srv.LazyFill()
	var cases []probeCase
	for i := range model.W.Prefixes {
		pi := &model.W.Prefixes[i]
		if !pi.HasClients() {
			continue
		}
		pop := router.PoPForClient(pi.P, pi.Coord)
		for _, d := range domains.Catalog() {
			if d.SupportsECS {
				cases = append(cases, probeCase{pop: pop, pool: i % PoolsPerPoP, name: d.Name, src: pi.P.Prefix()})
			}
		}
	}
	now := clockx.Epoch.Add(12 * time.Hour)
	for _, c := range cases {
		lf.Lookup(c.pop, c.pool, c.name, c.src, now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &cases[i%len(cases)]
		_, lookupSink = lf.Lookup(c.pop, c.pool, c.name, c.src, now)
	}
}

var lookupSink bool
