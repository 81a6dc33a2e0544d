package gpdns

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"clientmap/internal/authdns"
	"clientmap/internal/clockx"
	"clientmap/internal/dnsnet"
	"clientmap/internal/dnswire"
	"clientmap/internal/domains"
	"clientmap/internal/netx"
)

// probeCase is one snoop of the concurrency test: a vantage (and so a
// PoP), a pool, a name and a query source.
type probeCase struct {
	vantage netx.Addr
	pop     int
	pool    int
	name    string
	src     netx.Prefix
	at      time.Time
}

// probeOutcome is what a snoop observed.
type probeOutcome struct {
	hit   bool
	scope netx.Prefix
	ttl   uint32
}

const concurrentWorkers = 8

// concurrentCases builds snoops over every ECS domain and the world's
// client prefixes at their own PoPs, twice each at different times, so
// workers contend on the same memo lines, pools and handler table.
func concurrentCases(t *testing.T) []probeCase {
	t.Helper()
	_, model, router := lazySetup(t, 31)
	var cases []probeCase
	for i := range model.W.Prefixes {
		pi := &model.W.Prefixes[i]
		if !pi.HasClients() || len(cases) >= 1200 {
			continue
		}
		pop := router.PoPForClient(pi.P, pi.Coord)
		for _, d := range domains.Catalog() {
			if !d.SupportsECS {
				continue
			}
			for k := 0; k < 2; k++ {
				cases = append(cases, probeCase{
					vantage: netx.AddrFrom4(100, 64, byte(pop>>8), byte(pop)),
					pop:     pop,
					pool:    (i + k) % 3,
					name:    d.Name,
					src:     pi.P.Prefix(),
					at:      clockx.Epoch.Add(12*time.Hour + time.Duration(k)*37*time.Minute),
				})
			}
		}
	}
	if len(cases) == 0 {
		t.Fatal("tiny world has no client prefixes")
	}
	return cases
}

// runConcurrent runs do over every case from workers goroutines, each
// walking the whole list from its own offset, and checks every answer
// against want.
func runConcurrent(t *testing.T, cases []probeCase, want []probeOutcome, do func(probeCase) probeOutcome) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, concurrentWorkers)
	for w := 0; w < concurrentWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range cases {
				i := (j + w*len(cases)/concurrentWorkers) % len(cases)
				if got := do(cases[i]); got != want[i] {
					errs <- fmt.Errorf("worker %d case %d (%s %v pop %d): got %+v, sequential %+v", w, i, cases[i].name, cases[i].src, cases[i].pop, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLazyFillConcurrentMatchesSequential drives the lazy-fill memo
// from eight goroutines over overlapping keys: every answer must equal a
// sequential run's on a fresh memo. Run it under -race.
func TestLazyFillConcurrentMatchesSequential(t *testing.T) {
	cases := concurrentCases(t)
	lookup := func(lf *LazyFill, c probeCase) probeOutcome {
		e, ok := lf.Lookup(c.pop, c.pool, c.name, c.src, c.at)
		return probeOutcome{hit: ok, scope: e.scope, ttl: ttlRemaining(e.expiry, c.at)}
	}
	seq, _, _ := lazySetup(t, 31)
	want := make([]probeOutcome, len(cases))
	hits := 0
	for i, c := range cases {
		want[i] = lookup(seq.LazyFill(), c)
		if want[i].hit {
			hits++
		}
	}
	if hits == 0 || hits == len(cases) {
		t.Fatalf("%d/%d lookups hit; the test needs both outcomes", hits, len(cases))
	}
	par, _, _ := lazySetup(t, 31)
	runConcurrent(t, cases, want, func(c probeCase) probeOutcome { return lookup(par.LazyFill(), c) })
}

// TestMemNetConcurrentMatchesSequential sends the same snoops through
// MemNet into the Google front end — handler table, cache pools and
// lazy fill — from eight goroutines, while the handler table is
// republished underneath them, and requires every answer to equal a
// sequential run's. Some pools are seeded by recursive queries first,
// so lookups take both the locked and the empty-pool path.
func TestMemNetConcurrentMatchesSequential(t *testing.T) {
	cases := concurrentCases(t)
	for _, codec := range []bool{false, true} {
		t.Run(fmt.Sprintf("codec=%v", codec), func(t *testing.T) {
			build := func() *dnsnet.MemNet {
				srv, _, _ := lazySetup(t, 31)
				srv.SetUpstream(authdns.New(31, domains.Catalog()))
				seen := map[netx.Addr]bool{}
				for _, c := range cases {
					if !seen[c.vantage] {
						seen[c.vantage] = true
						srv.RegisterVantage(c.vantage, c.pop)
					}
				}
				net := dnsnet.NewMemNet(codec)
				net.Register("gpdns", srv)
				for i, c := range cases[:40] {
					q := snoop(c.name, c.src, uint16(i+1))
					q.RecursionDesired = true
					ctx := clockx.WithTime(context.Background(), c.at)
					if _, err := net.Client(c.vantage).Exchange(ctx, "gpdns", q); err != nil {
						t.Fatalf("seeding query %d: %v", i, err)
					}
				}
				return net
			}
			exchange := func(net *dnsnet.MemNet, c probeCase, id uint16) probeOutcome {
				ctx := clockx.WithTime(context.Background(), c.at)
				r, err := net.Client(c.vantage).Exchange(ctx, "gpdns", snoop(c.name, c.src, id))
				if err != nil {
					t.Errorf("exchange: %v", err)
					return probeOutcome{}
				}
				if len(r.Answers) == 0 {
					return probeOutcome{}
				}
				return probeOutcome{hit: true, scope: netx.PrefixFrom(c.src.Addr(), int(r.EDNS.ECS.ScopePrefixLen)), ttl: r.Answers[0].TTL}
			}
			// The transaction id picks the pool on the scheduled path.
			id := func(c probeCase) uint16 { return uint16(c.pool + 3) }

			seq := build()
			want := make([]probeOutcome, len(cases))
			hits := 0
			for i, c := range cases {
				want[i] = exchange(seq, c, id(c))
				if want[i].hit {
					hits++
				}
			}
			if hits == 0 || hits == len(cases) {
				t.Fatalf("%d/%d snoops hit; the test needs both outcomes", hits, len(cases))
			}
			par := build()
			stop := make(chan struct{})
			churned := make(chan struct{})
			go func() {
				defer close(churned)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					name := fmt.Sprintf("other-%d", i%4)
					par.Register(name, dnsnet.HandlerFunc(func(context.Context, netx.Addr, *dnswire.Message) *dnswire.Message { return nil }))
				}
			}()
			runConcurrent(t, cases, want, func(c probeCase) probeOutcome { return exchange(par, c, id(c)) })
			close(stop)
			<-churned
		})
	}
}
