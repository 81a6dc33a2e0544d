// Command ditlgen generates DITL-style root-server traces from a synthetic
// world and optionally crawls them with the Chromium detector — the
// standalone form of the DNS-logs technique (§3.2).
//
// Usage:
//
//	ditlgen -scale small -seed 3 -hours 48 -dir ./traces
//	ditlgen -dir ./traces -crawl            # detect resolvers in existing traces
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"time"

	"clientmap/internal/anycast"
	"clientmap/internal/core/dnslogs"
	"clientmap/internal/randx"
	"clientmap/internal/roots"
	"clientmap/internal/traffic"
	"clientmap/internal/world"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ditlgen: ")
	var (
		seed      = flag.Uint64("seed", 3, "simulation seed")
		scaleN    = flag.String("scale", "tiny", "world scale: tiny|small|medium|large")
		hours     = flag.Int("hours", 48, "trace duration (DITL collects 2 days)")
		dir       = flag.String("dir", "traces", "trace directory")
		crawl     = flag.Bool("crawl", false, "crawl traces instead of generating")
		threshold = flag.Int("threshold", 7, "daily collision threshold for the Chromium filter")
		top       = flag.Int("top", 15, "show the N busiest resolvers after a crawl")
	)
	flag.Parse()

	if *crawl {
		runCrawl(*dir, *threshold, *top)
		return
	}

	sc, ok := world.ScaleByName(*scaleN)
	if !ok {
		log.Fatalf("unknown scale %q", *scaleN)
	}
	w, err := world.Generate(world.Config{Seed: randx.Seed(*seed), Scale: sc, Params: world.DefaultParams()})
	if err != nil {
		log.Fatal(err)
	}
	router := anycast.NewRouter(randx.Seed(*seed), anycast.Catalog())
	model := traffic.NewModel(w, router, traffic.DefaultTunables())

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		log.Fatal(err)
	}
	gen := roots.NewGenerator(model)
	stats, err := gen.Generate(roots.GenConfig{
		Start:    time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC), // DITL 2020
		Duration: time.Duration(*hours) * time.Hour,
	}, func(letter string) (io.WriteCloser, error) {
		return os.Create(filepath.Join(*dir, "root-"+letter+".ditl"))
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d traces to %s: %d records (%d Chromium, %d junk), %d represented queries\n",
		len(roots.Letters), *dir, stats.Records, stats.Chromium, stats.Junk, stats.WeightTotal)
}

func runCrawl(dir string, threshold, top int) {
	res, err := dnslogs.Crawl(dnslogs.Config{DailyThreshold: threshold}, func(letter string) (io.ReadCloser, error) {
		return os.Open(filepath.Join(dir, "root-"+letter+".ditl"))
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crawled letters %v: %.0f queries, %.0f pattern matches, %d junk names filtered, %d resolvers detected\n",
		res.LettersRead, res.TotalQueries, res.PatternMatches, res.FilteredNames, len(res.ResolverCounts))

	type rc struct {
		addr  string
		count float64
	}
	var all []rc
	for addr, n := range res.ResolverCounts {
		all = append(all, rc{addr.String(), n})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].count > all[j].count })
	if top > len(all) {
		top = len(all)
	}
	fmt.Printf("top %d resolvers by Chromium query volume:\n", top)
	for _, r := range all[:top] {
		fmt.Printf("  %-16s %.0f\n", r.addr, r.count)
	}
}
