package dnslogs

import (
	"bytes"
	"io"
	"sort"
	"strings"
	"testing"
	"time"

	"clientmap/internal/anycast"
	"clientmap/internal/clockx"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
	"clientmap/internal/roots"
	"clientmap/internal/traffic"
	"clientmap/internal/world"
)

type nopCloser struct{ *bytes.Reader }

func (nopCloser) Close() error { return nil }

// genTraces produces DITL traces for a tiny world and returns the opener
// plus the world model for ground-truth checks.
func genTraces(t testing.TB, dur time.Duration) (func(string) (io.ReadCloser, error), *traffic.Model) {
	t.Helper()
	w, err := world.Generate(world.Config{Seed: 91, Scale: world.ScaleTiny, Params: world.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	router := anycast.NewRouter(91, anycast.Catalog())
	model := traffic.NewModel(w, router, traffic.DefaultTunables())
	g := roots.NewGenerator(model)
	bufs := make(map[string][]byte)
	var sink = func(letter string) (io.WriteCloser, error) {
		return &bufCloser{letter: letter, bufs: bufs}, nil
	}
	if _, err := g.Generate(roots.GenConfig{Start: clockx.Epoch, Duration: dur, Letters: roots.DITLLetters}, sink); err != nil {
		t.Fatal(err)
	}
	open := func(letter string) (io.ReadCloser, error) {
		return nopCloser{bytes.NewReader(bufs[letter])}, nil
	}
	return open, model
}

type bufCloser struct {
	letter string
	bufs   map[string][]byte
	buf    bytes.Buffer
}

func (b *bufCloser) Write(p []byte) (int, error) { return b.buf.Write(p) }
func (b *bufCloser) Close() error {
	b.bufs[b.letter] = b.buf.Bytes()
	return nil
}

func TestCrawlDetectsResolvers(t *testing.T) {
	open, model := genTraces(t, 48*time.Hour)
	res, err := Crawl(Config{}, open)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LettersRead) != len(roots.DITLLetters) {
		t.Errorf("read %v, want %v", res.LettersRead, roots.DITLLetters)
	}
	if len(res.ResolverCounts) == 0 {
		t.Fatal("no resolvers detected")
	}

	// Every detected source is a root-visible resolver or Google egress.
	visible := map[netx.Addr]bool{}
	for _, r := range model.W.Resolvers {
		if r.ForwardsToRoots {
			visible[r.Addr] = true
		}
	}
	for i, pop := range model.Router.PoPs() {
		if pop.Active {
			visible[model.W.GoogleEgress(i)] = true
		}
	}
	for addr := range res.ResolverCounts {
		if !visible[addr] {
			t.Errorf("detected source %v is not root-visible", addr)
		}
	}

	// Recall: most root-visible ISP resolvers with clients are detected.
	withClients := map[netx.Addr]bool{}
	for i := range model.W.Prefixes {
		pi := &model.W.Prefixes[i]
		if pi.HasClients() && pi.ResolverIdx >= 0 {
			r := model.W.Resolvers[pi.ResolverIdx]
			if r.ForwardsToRoots {
				withClients[r.Addr] = true
			}
		}
	}
	detected := 0
	for addr := range withClients {
		if _, ok := res.ResolverCounts[addr]; ok {
			detected++
		}
	}
	if frac := float64(detected) / float64(len(withClients)); frac < 0.8 {
		t.Errorf("detected %.0f%% of client-serving root-visible resolvers", frac*100)
	}
}

func TestCrawlFiltersJunk(t *testing.T) {
	open, _ := genTraces(t, 48*time.Hour)
	res, err := Crawl(Config{}, open)
	if err != nil {
		t.Fatal(err)
	}
	if res.FilteredNames == 0 {
		t.Error("collision filter rejected nothing despite junk and DGA traffic")
	}
	// The junk dictionary has ~12 pattern-matching names and the DGA set
	// 40; the filter should reject roughly that many, not thousands (which
	// would mean it is eating real Chromium randomness).
	if res.FilteredNames > 80 {
		t.Errorf("filter rejected %d names; likely swallowing Chromium probes", res.FilteredNames)
	}
	if res.PatternMatches <= 0 || res.TotalQueries <= res.PatternMatches {
		t.Errorf("accounting wrong: total=%v matches=%v", res.TotalQueries, res.PatternMatches)
	}
}

func TestCrawlCountsTrackActivity(t *testing.T) {
	open, model := genTraces(t, 48*time.Hour)
	res, err := Crawl(Config{}, open)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate ground-truth Chromium rate per root-visible resolver.
	truth := map[netx.Addr]float64{}
	for i := range model.W.Prefixes {
		pi := &model.W.Prefixes[i]
		if !pi.HasClients() || pi.ResolverIdx < 0 {
			continue
		}
		r := model.W.Resolvers[pi.ResolverIdx]
		if !r.ForwardsToRoots {
			continue
		}
		as := model.W.ASes[pi.ASIdx]
		truth[r.Addr] += model.ChromiumProbeRate(pi) * (1 - as.GoogleDNSShare)
	}
	// Rank correlation on the top sources: the busiest true resolver
	// should be near the top of the detected counts.
	var busiest netx.Addr
	for a, v := range truth {
		if v > truth[busiest] {
			busiest = a
		}
	}
	busierDetected := 0
	for _, v := range res.ResolverCounts {
		if v > res.ResolverCounts[busiest] {
			busierDetected++
		}
	}
	if busierDetected > len(res.ResolverCounts)/4 {
		t.Errorf("busiest true resolver ranks below %d of %d detected sources",
			busierDetected, len(res.ResolverCounts))
	}
}

func TestMatchesPattern(t *testing.T) {
	valid := []string{"abcdefg", "abcdefghijklmno", "zzzzzzzz"}
	invalid := []string{"short", "abcdefghijklmnop", "abc.def", "ABCDEFG", "abcdef7", "", "columbia1"}
	for _, n := range valid {
		if !matchesPattern(n) {
			t.Errorf("%q rejected", n)
		}
	}
	for _, n := range invalid {
		if matchesPattern(n) {
			t.Errorf("%q accepted", n)
		}
	}
}

// TestCrawlOpenError: an open or a header that fails, in either pass,
// aborts the crawl with an error naming the letter, and every trace
// opened is closed.
func TestCrawlOpenError(t *testing.T) {
	open, _ := genTraces(t, time.Hour)
	n := len(roots.DITLLetters)
	for _, tc := range []struct {
		name   string
		failAt int // 0-based open that fails: pass 1 opens 0..n-1, pass 2 n..2n-1
		bad    func(letter string) (io.ReadCloser, error)
	}{
		{"pass 1 open", 0, func(string) (io.ReadCloser, error) { return nil, io.ErrUnexpectedEOF }},
		{"pass 2 open", n + 2, func(string) (io.ReadCloser, error) { return nil, io.ErrUnexpectedEOF }},
		{"pass 2 header", n + 1, func(string) (io.ReadCloser, error) {
			return nopCloser{bytes.NewReader([]byte("garbage"))}, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opens, opened, closes := 0, 0, 0
			_, err := Crawl(Config{}, func(letter string) (io.ReadCloser, error) {
				get := open
				if opens == tc.failAt {
					get = tc.bad
				}
				opens++
				rc, err := get(letter)
				if err != nil {
					return nil, err
				}
				opened++
				return closeCounter{rc, &closes}, nil
			})
			want := roots.DITLLetters[tc.failAt%n]
			if err == nil || !strings.Contains(err.Error(), " "+want+":") {
				t.Errorf("error %v does not name letter %s", err, want)
			}
			if closes != opened {
				t.Errorf("opened %d traces, closed %d", opened, closes)
			}
		})
	}
}

type closeCounter struct {
	io.ReadCloser
	n *int
}

func (c closeCounter) Close() error { *c.n++; return c.ReadCloser.Close() }

func TestSimulateCollisions(t *testing.T) {
	// Tiny volumes: no collisions, threshold 2 (max multiplicity 1 + 1).
	small := SimulateCollisions(1, 9000, 20, 0.99)
	if small < 2 || small > 3 {
		t.Errorf("small-volume threshold = %d, want ~2", small)
	}
	// Large volumes collide more.
	big := SimulateCollisions(1, 3_000_000, 5, 0.99)
	if big <= small {
		t.Errorf("threshold did not grow with volume: %d <= %d", big, small)
	}
	// The paper's regime (tens of millions of queries/day) yields single
	// digit thresholds; sanity-check the shape with a reduced volume.
	if big > 12 {
		t.Errorf("threshold %d implausibly high", big)
	}
}

// SimulateCollisions runs the empirical simulation the paper uses to pick
// the collision threshold: draw dailyQueries random Chromium-style labels
// and record the maximum number of times any single name repeats; across
// trials, return the count below which the per-trial maximum stays with
// probability quantile (e.g. 0.99).
//
// Length-7 labels dominate collisions (26^7 ≈ 8×10^9 possible names), so
// the simulation tracks only those and scales the draw count by the 1/9
// share of lengths Chromium picks uniformly.
func SimulateCollisions(seed randx.Seed, dailyQueries int, trials int, quantile float64) int {
	rng := seed.New("dnslogs/collisions")
	maxes := make([]int, trials)
	draws := dailyQueries / 9 // share of 7-letter names
	for t := 0; t < trials; t++ {
		seen := make(map[uint64]int, draws)
		max := 0
		for i := 0; i < draws; i++ {
			// A uniform draw from the 26^7 name space, represented by its
			// index rather than the string.
			id := uint64(rng.Int63n(26 * 26 * 26 * 26 * 26 * 26 * 26))
			seen[id]++
			if seen[id] > max {
				max = seen[id]
			}
		}
		maxes[t] = max
	}
	sort.Ints(maxes)
	idx := int(quantile * float64(trials))
	if idx >= trials {
		idx = trials - 1
	}
	// The threshold is one above the observed collision maximum: names at
	// or beyond it are junk.
	return maxes[idx] + 1
}
