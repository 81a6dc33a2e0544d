package randx

import (
	"math"
	"testing"
)

func TestStreamDeterminism(t *testing.T) {
	a := Seed(42).New("test")
	b := Seed(42).New("test")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed+key produced diverging streams")
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	a := Seed(42).New("alpha")
	b := Seed(42).New("beta")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different keys coincide %d/64 times", same)
	}
}

func TestSeedSensitivity(t *testing.T) {
	if Seed(1).Hash64("x") == Seed(2).Hash64("x") {
		t.Error("different seeds hash identically")
	}
	if Seed(1).Hash64("x") == Seed(1).Hash64("y") {
		t.Error("different keys hash identically")
	}
}

func TestHashUnitRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		u := Seed(7).HashUnit(string(rune('a' + i%26)))
		if u < 0 || u >= 1 {
			t.Fatalf("HashUnit out of range: %v", u)
		}
	}
}

func TestHashUnitUniformish(t *testing.T) {
	var sum float64
	n := 5000
	for i := 0; i < n; i++ {
		sum += Seed(99).HashUnit(string(rune(i)) + "/k")
	}
	mean := sum / float64(n)
	if mean < 0.45 || mean > 0.55 {
		t.Errorf("HashUnit mean %v, want ~0.5", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	s := Seed(1).New("poisson")
	for _, mean := range []float64{0.5, 3, 20, 200} {
		n, sum := 20000, 0
		for i := 0; i < n; i++ {
			sum += s.Poisson(mean)
		}
		got := float64(sum) / float64(n)
		if math.Abs(got-mean) > mean*0.1+0.1 {
			t.Errorf("Poisson(%v) sample mean %v", mean, got)
		}
	}
}

func TestPoissonZeroAndNegative(t *testing.T) {
	s := Seed(1).New("p0")
	if s.Poisson(0) != 0 || s.Poisson(-5) != 0 {
		t.Error("Poisson of non-positive mean should be 0")
	}
}

func TestParetoBounds(t *testing.T) {
	s := Seed(3).New("pareto")
	for i := 0; i < 1000; i++ {
		v := s.Pareto(2.0, 1.5)
		if v < 2.0 {
			t.Fatalf("Pareto sample %v below xmin", v)
		}
	}
}

func TestWeightedChoice(t *testing.T) {
	s := Seed(5).New("wc")
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 10000; i++ {
		counts[s.WeightedChoice(w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight item chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.5 || ratio > 3.6 {
		t.Errorf("weight ratio %v, want ~3", ratio)
	}
	// All-zero weights fall back to uniform without panicking.
	if i := s.WeightedChoice([]float64{0, 0}); i < 0 || i > 1 {
		t.Errorf("uniform fallback returned %d", i)
	}
}

func TestLowerLetters(t *testing.T) {
	s := Seed(6).New("ll")
	for n := 7; n <= 15; n++ {
		str := s.LowerLetters(n)
		if len(str) != n {
			t.Fatalf("len=%d want %d", len(str), n)
		}
		for _, c := range str {
			if c < 'a' || c > 'z' {
				t.Fatalf("non-lowercase rune %q in %q", c, str)
			}
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := Seed(8).New("ln")
	for i := 0; i < 1000; i++ {
		if s.LogNormal(0, 1) <= 0 {
			t.Fatal("LogNormal sample not positive")
		}
	}
}
