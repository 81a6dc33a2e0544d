package stream

import (
	"math/rand"
	"testing"
)

// randSeries builds a random series with buckets in [0, maxHour].
func randSeries(rng *rand.Rand, maxHour int32) Series {
	var s Series
	n := rng.Intn(12)
	for i := 0; i < n; i++ {
		s.Add(rng.Int31n(maxHour+1), rng.Int31n(5)+1)
	}
	return s
}

func TestSeriesAddInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		s := randSeries(rng, 48)
		for i := 1; i < len(s.B); i++ {
			if s.B[i-1].Hour >= s.B[i].Hour {
				t.Fatalf("trial %d: buckets out of order: %v", trial, s.B)
			}
		}
		for _, b := range s.B {
			if b.Count <= 0 {
				t.Fatalf("trial %d: non-positive bucket: %v", trial, s.B)
			}
		}
	}
}

// Property 1: decay is prefix-monotone in sim time — decaying to t1 and
// then to t2 >= t1 is the same as decaying straight to t2. Evidence that
// aged out never comes back, and later decay never resurrects it.
func TestDecayPrefixMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const ttl = 6
	for trial := 0; trial < 500; trial++ {
		s := randSeries(rng, 48)
		t1 := rng.Int31n(49)
		t2 := t1 + rng.Int31n(24)
		step := s.Decay(t1, ttl).Decay(t2, ttl)
		direct := s.Decay(t2, ttl)
		if !step.Equal(direct) {
			t.Fatalf("trial %d: Decay(Decay(s,%d),%d) = %v, Decay(s,%d) = %v (s=%v)",
				trial, t1, t2, step.B, t2, direct.B, s.B)
		}
		// The ledger's in-place decay agrees with the reference.
		inPlace := Series{B: append([]Bucket(nil), s.B...)}
		inPlace.decayInPlace(t2, ttl)
		if !inPlace.Equal(direct) {
			t.Fatalf("trial %d: decayInPlace(s,%d) = %v, Decay = %v (s=%v)", trial, t2, inPlace.B, direct.B, s.B)
		}
	}
}

// Property 2: decay distributes over fold at equal timestamps —
// Fold(Decay(a,t), Decay(b,t)) == Decay(Fold(a,b), t). Folding shard
// evidence and then decaying gives exactly what decaying each shard
// first would, which is why the fold order across workers cannot change
// the ledger. Mirrors the health.FoldWindows commutativity suite.
func TestDecayDistributesOverFold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const ttl = 6
	for trial := 0; trial < 500; trial++ {
		a := randSeries(rng, 48)
		b := randSeries(rng, 48)
		now := rng.Int31n(60)
		lhs := Fold(a.Decay(now, ttl), b.Decay(now, ttl))
		rhs := Fold(a, b).Decay(now, ttl)
		if !lhs.Equal(rhs) {
			t.Fatalf("trial %d: Fold∘Decay = %v, Decay∘Fold = %v (a=%v b=%v now=%d)",
				trial, lhs.B, rhs.B, a.B, b.B, now)
		}
	}
}

// Fold itself is commutative and associative (the distributivity test
// leans on this).
func TestFoldCommutativeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		a, b, c := randSeries(rng, 48), randSeries(rng, 48), randSeries(rng, 48)
		if !Fold(a, b).Equal(Fold(b, a)) {
			t.Fatalf("trial %d: fold not commutative", trial)
		}
		if !Fold(Fold(a, b), c).Equal(Fold(a, Fold(b, c))) {
			t.Fatalf("trial %d: fold not associative", trial)
		}
	}
}

// Property 3: a scope re-probed exactly at the decay threshold never
// oscillates. A hit at hour h keeps the scope live through hour h+ttl;
// if the refresh lands exactly at h+ttl — the same hour the old bucket
// drops — the scope stays live continuously: the ledger never reports a
// decay-out for it, and the map never flaps inactive for one hour.
func TestThresholdRefreshNeverOscillates(t *testing.T) {
	const ttl = 6
	for h0 := int32(0); h0 < 4; h0++ {
		var s Series
		s.Add(h0, 1)
		for step := int32(1); step <= 5; step++ {
			at := h0 + step*ttl // exactly at each successive threshold
			s.Add(at, 1)
			if out := s.decayInPlace(at, ttl); out {
				t.Fatalf("refresh at threshold hour %d reported decay-out", at)
			}
			if !s.Live() {
				t.Fatalf("series dead after threshold refresh at hour %d", at)
			}
		}
	}

	// The ledger-level statement: AddHit at the threshold hour followed
	// by DecayTo of the same hour is neither "fresh" (no gap opened) nor
	// a decay-out (no flap recorded).
	l := NewLedger(ttl)
	scope := mustPrefix(t, 0x01020300, 24)
	if fresh := l.AddHit("a.example", scope, "fra", 0); !fresh {
		t.Fatal("first hit should be fresh")
	}
	l.DecayTo(0)
	for hour := int32(ttl); hour <= 4*ttl; hour += ttl {
		if fresh := l.AddHit("a.example", scope, "fra", hour); fresh {
			t.Fatalf("hour %d: threshold refresh reported fresh (scope flapped out)", hour)
		}
		if decayed := l.DecayTo(hour); decayed != 0 {
			t.Fatalf("hour %d: threshold refresh decayed %d scopes", hour, decayed)
		}
	}
	// One hour past the threshold without a refresh, the scope must
	// decay out — the boundary is exact, not fuzzy.
	if decayed := l.DecayTo(5*ttl + 1); decayed != 1 {
		t.Fatalf("expected exactly one decay-out past threshold, got %d", decayed)
	}
	if l.ActiveScopes() != 0 {
		t.Fatal("scope still active after aging past TTL")
	}
}

func TestMask(t *testing.T) {
	var s Series
	s.Add(10, 1)
	s.Add(12, 3)
	if m := s.Mask(12, 6); m != 0b101 {
		t.Fatalf("Mask(12,6) = %b, want 101", m)
	}
	if m := s.Mask(12, 2); m != 0b01 {
		t.Fatalf("Mask(12,2) = %b, want 1 (hour 10 outside window)", m)
	}
	if m := s.Mask(9, 6); m != 0 {
		t.Fatalf("Mask(9,6) = %b, want 0 (future buckets don't count)", m)
	}
}

func TestSeriesTotalLast(t *testing.T) {
	var s Series
	if _, ok := s.Last(); ok {
		t.Fatal("empty series has a last bucket")
	}
	s.Add(3, 2)
	s.Add(1, 1)
	s.Add(3, 1)
	if got := s.Total(); got != 4 {
		t.Fatalf("Total = %d, want 4", got)
	}
	if h, ok := s.Last(); !ok || h != 3 {
		t.Fatalf("Last = %d,%v, want 3,true", h, ok)
	}
}

// Decay returns the series with every bucket at or before now-ttl
// dropped: evidence is live for exactly ttl hours after the hour it was
// observed in. Decay(Decay(s, t1), t2) == Decay(s, t2) for t2 >= t1
// (prefix monotonicity), and Decay distributes over Fold at equal now.
func (s Series) Decay(now, ttl int32) Series {
	cut := now - ttl
	lo := 0
	for lo < len(s.B) && s.B[lo].Hour <= cut {
		lo++
	}
	if lo == 0 {
		return Series{B: s.B}
	}
	return Series{B: s.B[lo:]}
}

// Fold merges two series bucket-wise: counts at equal hours add. It is
// commutative and associative, and decay distributes over it:
// Fold(a.Decay(t, ttl), b.Decay(t, ttl)) == Fold(a, b).Decay(t, ttl).
func Fold(a, b Series) Series {
	if len(a.B) == 0 {
		return Series{B: append([]Bucket(nil), b.B...)}
	}
	if len(b.B) == 0 {
		return Series{B: append([]Bucket(nil), a.B...)}
	}
	out := make([]Bucket, 0, len(a.B)+len(b.B))
	i, j := 0, 0
	for i < len(a.B) && j < len(b.B) {
		switch {
		case a.B[i].Hour < b.B[j].Hour:
			out = append(out, a.B[i])
			i++
		case a.B[i].Hour > b.B[j].Hour:
			out = append(out, b.B[j])
			j++
		default:
			out = append(out, Bucket{Hour: a.B[i].Hour, Count: a.B[i].Count + b.B[j].Count})
			i, j = i+1, j+1
		}
	}
	out = append(out, a.B[i:]...)
	out = append(out, b.B[j:]...)
	return Series{B: out}
}

// Equal reports bucket-exact equality.
func (s Series) Equal(o Series) bool {
	if len(s.B) != len(o.B) {
		return false
	}
	for i := range s.B {
		if s.B[i] != o.B[i] {
			return false
		}
	}
	return true
}
