// Package stream is the continuous measurement mode: a campaign that
// never finishes. Evidence ages out on the sim clock (TTL-style decay
// over hour buckets), an adaptive scheduler re-probes prefixes on a
// priority ladder (recently-flipped > decaying-toward-threshold >
// never-observed > stable), and a rolling serve.ClientMap is assembled
// from whatever evidence is currently live, so the map tracks a churning
// world instead of summarizing a frozen one.
//
// The decay algebra is deliberately integral: a Series holds integer
// counts in integer hour buckets, decay drops whole buckets past the
// TTL, and folding is bucket-wise addition. All three properties the
// streaming test suite pins hold exactly (not just within float
// tolerance): decay is prefix-monotone in sim time, it distributes over
// fold at equal timestamps, and evidence refreshed exactly at the TTL
// threshold never oscillates — the dropped bucket and the refreshing
// bucket land in the same hour step.
package stream

// Bucket is one sim hour's evidence count.
type Bucket struct {
	Hour  int32
	Count int32
}

// Series is per-hour evidence, sorted by hour ascending with positive
// counts and at most one bucket per hour. The zero value is empty and
// ready to use.
type Series struct {
	B []Bucket
}

// Add folds n observations into the given hour. Out-of-order hours are
// handled (the streaming fold only ever appends, but the algebra tests
// exercise arbitrary order).
func (s *Series) Add(hour, n int32) {
	if n <= 0 {
		return
	}
	// Fast path: the stream appends in nondecreasing hour order.
	if k := len(s.B); k == 0 || s.B[k-1].Hour < hour {
		s.B = append(s.B, Bucket{Hour: hour, Count: n})
		return
	} else if s.B[k-1].Hour == hour {
		s.B[k-1].Count += n
		return
	}
	lo, hi := 0, len(s.B)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.B[mid].Hour < hour {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.B) && s.B[lo].Hour == hour {
		s.B[lo].Count += n
		return
	}
	s.B = append(s.B, Bucket{})
	copy(s.B[lo+1:], s.B[lo:])
	s.B[lo] = Bucket{Hour: hour, Count: n}
}

// decayInPlace drops every bucket at or before now-ttl, in place, for the
// ledger's per-hour maintenance: evidence is live for exactly ttl hours
// after the hour it was observed in. Reports whether the series went from
// live to empty.
func (s *Series) decayInPlace(now, ttl int32) (decayedOut bool) {
	cut := now - ttl
	lo := 0
	for lo < len(s.B) && s.B[lo].Hour <= cut {
		lo++
	}
	if lo == 0 {
		return false
	}
	live := len(s.B) > 0
	s.B = append(s.B[:0], s.B[lo:]...)
	return live && len(s.B) == 0
}

// Live reports whether any evidence is currently held (callers decay
// first; a decayed series is live iff it has buckets).
func (s Series) Live() bool { return len(s.B) > 0 }

// Total sums every bucket.
func (s Series) Total() int64 {
	var t int64
	for _, b := range s.B {
		t += int64(b.Count)
	}
	return t
}

// Last returns the most recent bucket hour, if any.
func (s Series) Last() (int32, bool) {
	if len(s.B) == 0 {
		return 0, false
	}
	return s.B[len(s.B)-1].Hour, true
}

// Mask returns the observed-hours bitmask over the window ending at now:
// bit k is set iff a bucket exists at hour now-k, for k < min(window,
// 64). It feeds serve.Confidence the way a fixed campaign's pass mask
// does, with "recent hour observed" in place of "pass observed".
func (s Series) Mask(now int32, window int) uint64 {
	if window > 64 {
		window = 64
	}
	var m uint64
	for i := len(s.B) - 1; i >= 0; i-- {
		k := now - s.B[i].Hour
		if k < 0 {
			continue
		}
		if int(k) >= window {
			break
		}
		m |= 1 << uint(k)
	}
	return m
}
