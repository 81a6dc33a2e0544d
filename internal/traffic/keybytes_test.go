package traffic

import (
	"fmt"
	"math"
	"testing"
	"time"

	"clientmap/internal/clockx"
	"clientmap/internal/domains"
)

// TestCountInDRMatchesCountInD pins the reseeded byte-key sampler against
// the string-key original: the roots generator switched to CountInDR for
// speed, and any drift here would silently regenerate different traces
// for the same seed.
func TestCountInDRMatchesCountInD(t *testing.T) {
	m := testModel(t)
	r := m.seed.New("scratch")
	start := clockx.Epoch
	keys := []string{"roots/chromium/0", "roots/junk/41", "x/y/z"}
	for _, key := range keys {
		for h := 0; h < 8; h++ {
			at := start.Add(time.Duration(h) * time.Hour)
			for _, rate := range []float64{0, 0.01, 0.5, 20} {
				want := m.CountInD(key, rate, -74, 1, at, time.Hour)
				got := m.CountInDR(r, []byte(key), rate, -74, 1, at, time.Hour)
				if got != want {
					t.Fatalf("key %q hour %d rate %v: CountInDR = %d, CountInD = %d",
						key, h, rate, got, want)
				}
			}
		}
	}
}

// TestCDNKeysMatchCountInD pins cdn.Collect's sampling path: one stream
// reseeded per sample with keys appended as "cdn/http/" or "cdn/ecs/" plus
// the /24, in place of CountInD with the fmt.Sprintf("cdn/http/%v", p)
// key and its "cdn/ecs" twin. Both the key bytes and the day-long sample
// must match, or every Microsoft validation dataset would move.
func TestCDNKeysMatchCountInD(t *testing.T) {
	m := testModel(t)
	r := m.seed.New("cdn/collect-scratch")
	day := clockx.Epoch.Add(96 * time.Hour)
	msft := domains.Catalog()[0]
	for _, d := range domains.Catalog() {
		if d.Microsoft {
			msft = d
		}
	}
	var kb [48]byte
	checked := 0
	for i := range m.W.Prefixes {
		pi := &m.W.Prefixes[i]
		if !pi.HasClients() {
			continue
		}
		checked++
		for _, c := range []struct {
			kind string
			rate float64
		}{{"cdn/http/", m.HTTPRate(pi)}, {"cdn/ecs/", m.GoogleDNSRate(pi, msft)}} {
			want := fmt.Sprintf("%s%v", c.kind, pi.P)
			key := pi.P.AppendTo(append(kb[:0], c.kind...))
			if string(key) != want {
				t.Fatalf("key bytes %q, Sprintf key %q", key, want)
			}
			lon, diurn := pi.Coord.Lon, float64(pi.Diurnality)
			if got, w := m.CountInDR(r, key, c.rate, lon, diurn, day, 24*time.Hour), m.CountInD(want, c.rate, lon, diurn, day, 24*time.Hour); got != w {
				t.Fatalf("%s: CountInDR = %d, CountInD = %d", want, got, w)
			}
		}
	}
	if checked == 0 {
		t.Fatal("tiny world has no client prefixes")
	}
}

// TestAffinityMatchesStringKeys re-derives the popularity multiplier
// through the Sprintf/concatenation keys affinity used before the
// zero-alloc rewrite: any drift changes every prefix's per-domain query
// rate and with it every lazily filled cache line.
func TestAffinityMatchesStringKeys(t *testing.T) {
	m := testModel(t)
	pi := activePrefix(t, m)
	for _, d := range domains.Catalog() {
		v := d.AffinityVar
		if v == 0 {
			v = 1
		}
		as := m.W.ASes[pi.ASIdx]
		asKey := fmt.Sprintf("traffic/asaffinity/%d/%s", as.ASN, d.Name)
		zAS := (m.seed.HashUnit(asKey+"/1") + m.seed.HashUnit(asKey+"/2") +
			m.seed.HashUnit(asKey+"/3") + m.seed.HashUnit(asKey+"/4") - 2.0) * math.Sqrt(3)
		pKey := "traffic/affinity/" + pi.P.String() + "/" + d.Name
		zP := (m.seed.HashUnit(pKey+"/1") + m.seed.HashUnit(pKey+"/2") +
			m.seed.HashUnit(pKey+"/3") + m.seed.HashUnit(pKey+"/4") - 2.0) * math.Sqrt(3)
		want := math.Exp(v * (1.3*zAS + 0.9*zP - 1.25*v))
		if want > 30 {
			want = 30
		}
		if got := m.affinity(pi, d); got != want {
			t.Errorf("%s: affinity = %v, string-key derivation = %v", d.Name, got, want)
		}
	}
}

// TestLastEventBeforeDBMatchesString pins the byte-key cache-fill sampler
// against the string variant for the same inputs.
func TestLastEventBeforeDBMatchesString(t *testing.T) {
	m := testModel(t)
	at := clockx.Epoch.Add(30 * time.Hour)
	keys := []string{"gpdns/www.wikipedia.org/10.0.0.0/16/3/1", "a", ""}
	for _, key := range keys {
		for _, rate := range []float64{0.001, 0.2, 5} {
			wantT, wantOK := m.LastEventBeforeD(key, rate, 139, 0.7, at, 5*time.Minute)
			gotT, gotOK := m.LastEventBeforeDB([]byte(key), rate, 139, 0.7, at, 5*time.Minute)
			if gotOK != wantOK || !gotT.Equal(wantT) {
				t.Fatalf("key %q rate %v: byte variant (%v,%v) != string variant (%v,%v)",
					key, rate, gotT, gotOK, wantT, wantOK)
			}
		}
	}
}
