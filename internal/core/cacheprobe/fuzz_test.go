package cacheprobe

import "testing"

// FuzzParseRetry throws arbitrary spec strings at the -retries grammar.
// The contract under fuzz: malformed specs return an error (never
// panic), accepted specs always satisfy Validate, and the fingerprint is
// a fixpoint — ParseRetry(r.Fingerprint()).Fingerprint() ==
// r.Fingerprint() — so a spec, the stage fingerprints it feeds and
// checkpoint invalidation all agree on one form.
func FuzzParseRetry(f *testing.F) {
	for _, seed := range []string{
		"",
		"off",
		"attempts=3,timeout=2s,backoff=100ms,budget=1000",
		"attempts=1,timeout=5s",
		"attempts=2",
		"attempts=0",
		"attempts=-1",
		"timeout=1s",
		"attempts=2,timeout=-1s",
		"attempts=2,backoff=1h0m0s",
		"attempts=2,budget=-5",
		"attempts=3,attempts=4",
		"attempts=x",
		"=",
		",",
		"attempts",
		"unknown=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		r, err := ParseRetry(spec)
		if err != nil {
			return // rejected cleanly; nothing more to check
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("ParseRetry(%q) accepted an invalid policy: %v", spec, err)
		}
		fp := r.Fingerprint()
		r2, err := ParseRetry(fp)
		if err != nil {
			t.Fatalf("fingerprint %q (from %q) does not re-parse: %v", fp, spec, err)
		}
		if got := r2.Fingerprint(); got != fp {
			t.Fatalf("fingerprint is not a fixpoint: %q → %q → %q", spec, fp, got)
		}
	})
}
