package gpdns

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"clientmap/internal/anycast"
	"clientmap/internal/churn"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
	"clientmap/internal/traffic"
	"clientmap/internal/world"
)

// TestLazyFillChurnOracle holds typed invalidation to a fresh memo.
// Random sequences of all six churn kinds are applied to tiny and small
// worlds over three seeds. After each event, every line the memo still
// holds, and every line it refills for a sampled key set, must equal the
// line a fresh LazyFill fills on the post-churn world, and every kept
// client route must equal the router's. A realloc must drop some lines
// and keep others, or the oracle would not see a stale keep.
func TestLazyFillChurnOracle(t *testing.T) {
	for _, scale := range []world.Scale{world.ScaleTiny, world.ScaleSmall} {
		for _, seed := range []randx.Seed{1, 7, 2021} {
			t.Run(fmt.Sprintf("%s/seed=%d", scale.Name, seed), func(t *testing.T) {
				checkChurnOracle(t, scale, seed)
			})
		}
	}
}

func checkChurnOracle(t *testing.T, scale world.Scale, seed randx.Seed) {
	w, err := world.Generate(world.Config{Seed: seed, Scale: scale, Params: world.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	router := anycast.NewRouter(seed, anycast.Catalog())
	model := traffic.NewModel(w, router, traffic.DefaultTunables())
	lf := NewLazyFill(model, PoolsPerPoP)

	ch := churn.Config{
		Seed:          seed,
		Realloc:       churn.Realloc{Count: 2, Every: 2 * time.Hour},
		Drift:         churn.Drift{Sigma: 0.15, Every: 3 * time.Hour},
		Diurnal:       churn.Diurnal{Delta: 0.2, Every: 4 * time.Hour},
		PoPs:          []churn.PoPWindow{{PoP: "fra", Start: time.Hour, Duration: 2 * time.Hour}},
		ChromiumOff:   true,
		ChromiumOffAt: 2 * time.Hour,
	}
	plan := ch.Plan(6, w)
	rng := seed.New("gpdns/churn-oracle")
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	kinds := map[churn.Kind]bool{}
	for _, ev := range plan {
		kinds[ev.Kind] = true
	}
	if len(kinds) != 6 {
		t.Fatalf("plan holds %d churn kinds, want all 6", len(kinds))
	}

	// Keys: random client /24s at random ECS domains and source lengths,
	// plus, before each realloc, keys over its /24 so the memo holds a
	// line the realloc makes stale.
	var keys []lineKey
	ecs := ecsDomains(lf)
	addKey := func(p netx.Slash24) {
		di := ecs[rng.Intn(len(ecs))]
		bits := 16 + rng.Intn(9)
		k := lineKey{dom: di, src: netx.PrefixFrom(p.Addr(), bits)}
		keys = append(keys, k)
		lf.lineFor(di, &lf.doms[di], k.src)
	}
	for len(keys) < 40 {
		if pi := &w.Prefixes[rng.Intn(len(w.Prefixes))]; pi.HasClients() {
			addKey(pi.P)
		}
	}

	partial := false
	for i, ev := range plan {
		if ev.Kind == churn.KindRealloc {
			for j := 0; j < 3; j++ {
				addKey(ev.Prefix)
			}
		}
		before := lf.lines.Load().n
		lf.Invalidate(ch.Apply(ev, w))
		after := lf.lines.Load().n
		if ev.Kind == churn.KindRealloc && after > 0 && after < before {
			partial = true
		}

		fresh := NewLazyFill(model, PoolsPerPoP)
		same := func(what string, l *line) {
			t.Helper()
			want := fresh.lineFor(l.key.dom, &fresh.doms[l.key.dom], l.key.src)
			if !reflect.DeepEqual(l, want) {
				t.Fatalf("event %d (%s %s): %s line %s %v = %+v, fresh fill %+v",
					i, ev.Kind, ev.Describe(), what, lf.doms[l.key.dom].Name, l.key.src, *l, *want)
			}
		}
		tab := lf.lines.Load()
		for s := range tab.slots {
			if l := tab.slots[s].Load(); l != nil {
				same("kept", l)
			}
		}
		for j := i % 3; j < len(keys); j += 3 {
			k := keys[j]
			same("refilled", lf.lineFor(k.dom, &lf.doms[k.dom], k.src))
		}
		for p, pop := range lf.routes {
			pi, _ := w.PrefixInfoOf(p)
			if want := router.PoPForClient(p, pi.Coord); pop != want {
				t.Fatalf("event %d (%s): route of %s = %d, router says %d", i, ev.Kind, p, pop, want)
			}
		}
	}
	if !partial {
		t.Error("no realloc dropped some lines and kept others")
	}
}

// ecsDomains returns the catalog indices of the ECS-enabled domains.
func ecsDomains(lf *LazyFill) []int32 {
	var out []int32
	for i, d := range lf.doms {
		if d.SupportsECS {
			out = append(out, int32(i))
		}
	}
	return out
}
