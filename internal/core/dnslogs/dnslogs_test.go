package dnslogs

import (
	"bytes"
	"io"
	"testing"
	"time"

	"clientmap/internal/anycast"
	"clientmap/internal/clockx"
	"clientmap/internal/netx"
	"clientmap/internal/roots"
	"clientmap/internal/traffic"
	"clientmap/internal/world"
)

type nopCloser struct{ *bytes.Reader }

func (nopCloser) Close() error { return nil }

// genTraces produces DITL traces for a tiny world and returns the opener
// plus the world model for ground-truth checks.
func genTraces(t testing.TB, dur time.Duration) (func(string) (io.ReadCloser, error), *traffic.Model, *roots.Generator) {
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
	if _, err := g.Generate(roots.GenConfig{Start: clockx.Epoch, Duration: dur}, sink); err != nil {
		t.Fatal(err)
	}
	open := func(letter string) (io.ReadCloser, error) {
		return nopCloser{bytes.NewReader(bufs[letter])}, nil
	}
	return open, model, g
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
	open, model, gen := genTraces(t, 48*time.Hour)
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
	for _, a := range gen.GoogleEgress() {
		visible[a] = true
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
	open, _, _ := genTraces(t, 48*time.Hour)
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
	open, model, _ := genTraces(t, 48*time.Hour)
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

func TestCrawlOpenError(t *testing.T) {
	_, err := Crawl(Config{}, func(string) (io.ReadCloser, error) {
		return nil, io.ErrUnexpectedEOF
	})
	if err == nil {
		t.Error("open error swallowed")
	}
}

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
