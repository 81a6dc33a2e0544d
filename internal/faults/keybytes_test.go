package faults

import (
	"fmt"
	"testing"
	"time"

	"clientmap/internal/clockx"
	"clientmap/internal/randx"
)

// TestDecideMatchesStringHash re-derives the injector's per-query fault
// rolls through the string-concatenated hash keys they replaced: any
// drift moves every injected fault in a seeded campaign. The jitter roll
// extends its head the way decide extends the others.
func TestDecideMatchesStringHash(t *testing.T) {
	seed := randx.Seed(77)
	in := New(Config{Seed: seed, Loss: 0.5}, "vantage-a", clockx.Epoch, clockx.NewSim(clockx.Epoch), nil, nil)
	keys := []string{"0/41112/gpdns:8.8.8.8/vantage-a", "1025/7/ns.example/vantage-a"}
	heads := map[string]randx.KeyState{
		"jitter": in.jitterHead, "brownout-loss": in.brownoutHead,
		"loss": in.lossHead, "dup": in.dupHead, "trunc": in.truncHead,
	}
	for kind, head := range heads {
		for _, key := range keys {
			for _, p := range []float64{0.01, 0.3, 0.97} {
				want := seed.HashUnit(fmt.Sprintf("faults/%s/%s", kind, key)) < p
				if got := decide(head, []byte(key), p); got != want {
					t.Errorf("decide(%s head, %q, %v) = %v, string-hash derivation = %v",
						kind, key, p, got, want)
				}
			}
		}
	}
}

// TestBrownoutSeverityMatchesStringHash pins the brownout intensity hash
// against its former Sprintf key.
func TestBrownoutSeverityMatchesStringHash(t *testing.T) {
	seed := randx.Seed(5)
	b := Brownout{Start: 0, Duration: time.Hour}
	for _, at := range []time.Duration{0, BrownoutWindow + time.Second, 42 * BrownoutWindow} {
		w := int64(at / BrownoutWindow)
		want := 0.5 + 0.5*seed.HashUnit(fmt.Sprintf("faults/brownout/%d/%s", w, "tgt"))
		if got := b.severity(seed, "tgt", at); got != want {
			t.Errorf("severity at %v = %v, string-hash derivation = %v", at, got, want)
		}
	}
}

// TestFlapDownMatchesStringHash pins the blackout-offset hash against its
// former Sprintf key.
func TestFlapDownMatchesStringHash(t *testing.T) {
	seed := randx.Seed(9)
	f := Flap{Start: 0, Duration: time.Hour, Period: time.Minute, Down: 10 * time.Second}
	for at := time.Duration(0); at < 10*time.Minute; at += 7 * time.Second {
		cycle := int64(at / f.Period)
		within := at % f.Period
		off := time.Duration(seed.HashUnit(fmt.Sprintf("faults/flap/%d/%s", cycle, "tgt")) * float64(f.Period-f.Down))
		want := within >= off && within < off+f.Down
		if got := f.down(seed, "tgt", at); got != want {
			t.Errorf("down at %v = %v, string-hash derivation = %v", at, got, want)
		}
	}
}
