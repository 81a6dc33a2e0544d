// Package dnslogs implements the paper's second technique (§3.2): crawling
// root-server DITL traces for the Chromium DNS-interception probes —
// queries for random single labels of 7-15 lowercase letters — and
// counting them per source (recursive resolver) as a client-activity
// signal.
//
// Random strings rarely collide, so any single-label name of the right
// shape seen more than a daily threshold is junk (a misconfigured host
// name, a DGA domain) rather than Chromium randomness; the paper
// determined by simulation that genuine Chromium names collide fewer than
// 7 times per day across all roots with 99% probability.
package dnslogs

import (
	"fmt"
	"io"
	"sort"
	"time"

	"clientmap/internal/netx"
	"clientmap/internal/randx"
	"clientmap/internal/roots"
)

// Chromium's interception probes are single labels of 7-15 lowercase
// letters (§3.2).
const (
	minLabelLen = 7
	maxLabelLen = 15
)

// Config parameterizes the crawl. The crawl reads the 2020 DITL letters
// whose traces are un-anonymized (roots.DITLLetters).
type Config struct {
	// DailyThreshold is the per-name daily query count at or above which
	// a name is classified as junk rather than Chromium randomness. Zero
	// means the paper's 7.
	DailyThreshold int
	// OpenAttempts is how many times opening a letter's trace is tried
	// before the crawl fails — DITL archives live on remote storage where
	// transient open errors are routine. Zero or one means a single try.
	OpenAttempts int
	// OpenBackoff is the base delay between open attempts, doubling per
	// retry (real time; trace opening happens outside the simulated
	// clock).
	OpenBackoff time.Duration
}

func (c Config) withDefaults() Config {
	if c.DailyThreshold == 0 {
		c.DailyThreshold = 7
	}
	return c
}

// Result is the outcome of a crawl.
type Result struct {
	// ResolverCounts is the weighted Chromium query count per source
	// address — the per-resolver activity signal.
	ResolverCounts map[netx.Addr]float64
	// TotalQueries is the weighted query volume inspected.
	TotalQueries float64
	// PatternMatches is the weighted volume matching the label pattern
	// before collision filtering.
	PatternMatches float64
	// FilteredNames is how many distinct names the collision threshold
	// rejected.
	FilteredNames int
	// LettersRead lists the letters actually crawled.
	LettersRead []string
	// OpenRetries counts trace opens that failed and were retried.
	OpenRetries int
}

// Resolvers returns the detected resolver addresses in ascending order.
func (r *Result) Resolvers() []netx.Addr {
	out := make([]netx.Addr, 0, len(r.ResolverCounts))
	for a := range r.ResolverCounts {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// matchesPattern reports whether name looks like a Chromium probe: one
// label of minLabelLen-maxLabelLen lowercase ASCII letters, no dots.
func matchesPattern(name string) bool {
	if len(name) < minLabelLen || len(name) > maxLabelLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		if name[i] < 'a' || name[i] > 'z' {
			return false
		}
	}
	return true
}

// nameDay keys per-name daily counts.
type nameDay struct {
	name string
	day  int64 // days since epoch
}

// Crawl processes the traces twice: a first pass accumulates per-name
// daily counts across all roots (the collision filter needs global
// visibility), a second pass attributes surviving queries to their source
// resolvers. open is called once per pass per letter.
func Crawl(cfg Config, open func(letter string) (io.ReadCloser, error)) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{ResolverCounts: make(map[netx.Addr]float64)}

	// openRetry wraps open with the configured retry policy: transient
	// storage errors should not abort a multi-hour crawl.
	openRetry := func(letter string) (io.ReadCloser, error) {
		attempts := cfg.OpenAttempts
		if attempts < 1 {
			attempts = 1
		}
		var lastErr error
		for try := 0; try < attempts; try++ {
			if try > 0 {
				res.OpenRetries++
				if cfg.OpenBackoff > 0 {
					time.Sleep(cfg.OpenBackoff << uint(try-1))
				}
			}
			rc, err := open(letter)
			if err == nil {
				return rc, nil
			}
			lastErr = err
		}
		return nil, lastErr
	}

	// Pass 1: per-name daily counts.
	counts := make(map[nameDay]float64)
	for _, letter := range roots.DITLLetters {
		rc, err := openRetry(letter)
		if err != nil {
			return nil, fmt.Errorf("dnslogs: opening %s: %w", letter, err)
		}
		tr, err := roots.NewReader(rc)
		if err != nil {
			rc.Close()
			return nil, fmt.Errorf("dnslogs: %s: %w", letter, err)
		}
		for {
			rec, err := tr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				rc.Close()
				return nil, fmt.Errorf("dnslogs: %s: %w", letter, err)
			}
			res.TotalQueries += float64(rec.Weight)
			if !matchesPattern(rec.QName) {
				continue
			}
			res.PatternMatches += float64(rec.Weight)
			// Collision counting uses record occurrences, not weights: a
			// sampled record's weight stands for additional queries with
			// *distinct* random names (the trace format's sampling
			// contract), so only repeats of the same literal name count
			// toward the junk threshold.
			key := nameDay{name: rec.QName, day: rec.Time.Unix() / 86400}
			counts[key]++
		}
		rc.Close()
		res.LettersRead = append(res.LettersRead, letter)
	}

	// Identify junk names (collision threshold exceeded on any day).
	junk := make(map[string]bool)
	for key, n := range counts {
		if n >= float64(cfg.DailyThreshold) {
			junk[key.name] = true
		}
	}
	res.FilteredNames = len(junk)

	// Pass 2: attribute surviving matches to resolvers.
	for _, letter := range roots.DITLLetters {
		rc, err := openRetry(letter)
		if err != nil {
			return nil, fmt.Errorf("dnslogs: reopening %s: %w", letter, err)
		}
		tr, err := roots.NewReader(rc)
		if err != nil {
			rc.Close()
			return nil, err
		}
		for {
			rec, err := tr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				rc.Close()
				return nil, err
			}
			if !matchesPattern(rec.QName) || junk[rec.QName] {
				continue
			}
			res.ResolverCounts[rec.Src] += float64(rec.Weight)
		}
		rc.Close()
	}
	return res, nil
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
