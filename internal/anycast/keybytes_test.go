package anycast

import (
	"testing"

	"clientmap/internal/geo"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
)

// popForClientStrings is PoPForClient as it was written before its keys
// were byte-built: string-formatted hash keys, and a long-tail detour
// after the rank loop.
func (r *Router) popForClientStrings(p netx.Slash24, c geo.Coord) int {
	order := r.nearest(c, r.activeIdx)
	kept := order[:0:0]
	for _, idx := range order {
		pop := r.pops[idx]
		if pop.Active && !pop.CloudReachable &&
			r.seed.HashUnit("anycast/small/"+p.String()+"/"+pop.Name) < 0.75 {
			continue
		}
		kept = append(kept, idx)
	}
	if len(kept) > 0 {
		order = kept
	}
	u := r.seed.HashUnit("anycast/client/" + p.String())
	acc := 0.0
	for k, prob := range popRankProbs {
		if k >= len(order) {
			break
		}
		acc += prob
		if u < acc {
			return order[k]
		}
	}
	return -1 // the detour: unreachable, which the tests below pin
}

// TestClientKeyBytesMatchStrings re-derives client routes through the
// string-keyed routing the byte-built keys replaced: every route must
// agree, or every lazily filled cache line and root trace would move.
func TestClientKeyBytesMatchStrings(t *testing.T) {
	coords := []geo.Coord{{Lat: 52.37, Lon: 4.9}, {Lat: 40, Lon: -100}, {Lat: -33.9, Lon: 151.2}, {Lat: 1.35, Lon: 103.8}, {Lat: -23.5, Lon: -46.6}}
	for _, seed := range []randx.Seed{1, 2021} {
		r := NewRouter(seed, Catalog())
		for i := 0; i < 4000; i++ {
			p := netx.Slash24(uint32(i) * 2654435761 >> 8)
			c := coords[i%len(coords)]
			want := r.popForClientStrings(p, c)
			if want < 0 {
				t.Fatalf("seed %d %s: the string-keyed route fell through the rank loop", seed, p)
			}
			if got := r.PoPForClient(p, c); got != want {
				t.Fatalf("seed %d %s: PoPForClient = %d, string-keyed = %d", seed, p, got, want)
			}
		}
	}
}

// TestRankProbsCoverEveryDraw pins why PoPForClient's last rank may take
// the remainder: the rank probabilities accumulate to exactly 1 in
// float64, and the candidates that survive thinning — at least every
// cloud-reachable site — outnumber the ranks.
func TestRankProbsCoverEveryDraw(t *testing.T) {
	acc := 0.0
	for _, prob := range popRankProbs {
		acc += prob
	}
	if acc != 1 {
		t.Errorf("rank probabilities sum to %v, want exactly 1", acc)
	}
	r := NewRouter(1, Catalog())
	if len(r.cloudIdx) < len(popRankProbs) {
		t.Errorf("%d cloud-reachable sites, want >= %d ranks", len(r.cloudIdx), len(popRankProbs))
	}
}
