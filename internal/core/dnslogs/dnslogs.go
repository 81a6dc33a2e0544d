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

	"clientmap/internal/netx"
	"clientmap/internal/roots"
	"clientmap/internal/snapshot"
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
	// OpenRetries is always 0: the crawl reads traces its own stage has
	// just written, and never retries an open. The field and its codec
	// slot stay so that the ditl-dnslogs checkpoint format (version 2)
	// and the ledger key that reads it stay as pinned.
	OpenRetries int
}

// Resolvers returns the detected resolver addresses in ascending order.
func (r *Result) Resolvers() []netx.Addr { return snapshot.SortedKeys(r.ResolverCounts) }

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

	// Pass 1: per-name daily counts.
	counts := make(map[nameDay]float64)
	for _, letter := range roots.DITLLetters {
		err := readTrace(letter, open, func(rec roots.Record) {
			res.TotalQueries += float64(rec.Weight)
			if !matchesPattern(rec.QName) {
				return
			}
			res.PatternMatches += float64(rec.Weight)
			// Collision counting uses record occurrences, not weights: a
			// sampled record's weight stands for additional queries with
			// *distinct* random names (the trace format's sampling
			// contract), so only repeats of the same literal name count
			// toward the junk threshold.
			counts[nameDay{name: rec.QName, day: rec.Time.Unix() / 86400}]++
		})
		if err != nil {
			return nil, err
		}
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
		err := readTrace(letter, open, func(rec roots.Record) {
			if matchesPattern(rec.QName) && !junk[rec.QName] {
				res.ResolverCounts[rec.Src] += float64(rec.Weight)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// readTrace opens one letter's trace and hands each of its records to fn.
// Its errors name the letter.
func readTrace(letter string, open func(letter string) (io.ReadCloser, error), fn func(roots.Record)) error {
	rc, err := open(letter)
	if err != nil {
		return fmt.Errorf("dnslogs: opening %s: %w", letter, err)
	}
	defer rc.Close()
	tr, err := roots.NewReader(rc)
	if err != nil {
		return fmt.Errorf("dnslogs: %s: %w", letter, err)
	}
	for {
		rec, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("dnslogs: %s: %w", letter, err)
		}
		fn(rec)
	}
}
