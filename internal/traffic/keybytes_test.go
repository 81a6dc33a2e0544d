package traffic

import (
	"fmt"
	"math"
	"strconv"
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

// TestLastEventBeforeDBMatchesString pins the prefix-state cache-fill
// sampler against the byte-key form it replaced and the string variant
// of that, for the same inputs, with the key split at every byte. It
// also holds each continued bucket state to Seed.Hash64 of the full
// fmt.Sprintf key, over multi-digit PoP, pool and bucket values.
func TestLastEventBeforeDBMatchesString(t *testing.T) {
	m := testModel(t)
	at := clockx.Epoch.Add(30 * time.Hour)
	keys := []string{"gpdns/www.wikipedia.org/10.0.0.0/16/3/1", "gpdns/en.wikipedia.org/203.0.113.0/24/17/12", "a", ""}
	for _, key := range keys {
		for _, rate := range []float64{0.001, 0.2, 5} {
			wantT, wantOK := m.LastEventBeforeD(key, rate, 139, 0.7, at, 5*time.Minute)
			bT, bOK := m.lastEventBeforeDB([]byte(key), rate, 139, 0.7, at, 5*time.Minute)
			if bOK != wantOK || !bT.Equal(wantT) {
				t.Fatalf("key %q rate %v: byte variant (%v,%v) != string variant (%v,%v)",
					key, rate, bT, bOK, wantT, wantOK)
			}
			for cut := 0; cut <= len(key); cut++ {
				k := m.EventKey([]byte(key[:cut])).Extend([]byte(key[cut:]))
				gotT, gotOK := m.LastEventBefore(k, rate, 139, 0.7, at, 5*time.Minute)
				if gotOK != wantOK || !gotT.Equal(wantT) {
					t.Fatalf("key %q cut %d rate %v: prefix-state form (%v,%v) != string variant (%v,%v)",
						key, cut, rate, gotT, gotOK, wantT, wantOK)
				}
			}
		}
	}

	natural := "198.51.100.0/20"
	head := m.EventKey([]byte("gpdns/www.wikipedia.org/" + natural + "/"))
	for _, pp := range [][2]int{{0, 0}, {7, 3}, {21, 11}} {
		k := head.Extend([]byte(fmt.Sprintf("%d/%d", pp[0], pp[1])))
		for _, b := range []int64{0, 9, 5787402, -12} {
			tail := []byte(fmt.Sprintf("/%d", b))
			full := fmt.Sprintf("gpdns/www.wikipedia.org/%s/%d/%d/%d", natural, pp[0], pp[1], b)
			if got, want := k.ev.Extend(tail).Hash64(), m.seed.Hash64("traffic/ev/"+full); got != want {
				t.Errorf("ev state for %q = %x, Hash64 = %x", full, got, want)
			}
			if got, want := k.evt.Extend(tail).Hash64(), m.seed.Hash64("traffic/evt/"+full); got != want {
				t.Errorf("evt state for %q = %x, Hash64 = %x", full, got, want)
			}
		}
	}
}

// CountIn is CountInD with diurnality weight 1.
func (m *Model) CountIn(key string, rate float64, lon float64, start time.Time, dur time.Duration) int {
	return m.CountInD(key, rate, lon, 1, start, dur)
}

// CountInD is the string-key reference for CountInDR: it formats the key
// and constructs a fresh stream per sample.
func (m *Model) CountInD(key string, rate, lon, diurn float64, start time.Time, dur time.Duration) int {
	if rate <= 0 || dur <= 0 {
		return 0
	}
	mid := start.Add(dur / 2)
	mean := rate * dur.Seconds() * DiurnalWeighted(mid, lon, diurn)
	rng := m.seed.New(fmt.Sprintf("traffic/%s/%d", key, start.Unix()))
	return rng.Poisson(mean)
}

// lastEvent is LastEventBefore over a string key with diurnality
// weight 1.
func (m *Model) lastEvent(key string, rate float64, lon float64, t time.Time, window time.Duration) (time.Time, bool) {
	return m.LastEventBefore(m.EventKey([]byte(key)), rate, lon, 1, t, window)
}

// LastEventBeforeD is lastEventBeforeDB with a string key.
func (m *Model) LastEventBeforeD(key string, rate, lon, diurn float64, t time.Time, window time.Duration) (time.Time, bool) {
	var kb [128]byte
	return m.lastEventBeforeDB(append(kb[:0], key...), rate, lon, diurn, t, window)
}

// lastEventBeforeDB is the byte-key form LastEventBefore replaced: it
// assembles "traffic/ev/<key>/<bucket>" and "traffic/evt/<key>/<bucket>"
// in full and hashes each from the seed.
func (m *Model) lastEventBeforeDB(key []byte, rate, lon, diurn float64, t time.Time, window time.Duration) (time.Time, bool) {
	if rate <= 0 || window <= 0 {
		return time.Time{}, false
	}
	var evb, evtb [160]byte
	kEv := append(evb[:0], "traffic/ev/"...)
	kEv = append(kEv, key...)
	kEv = append(kEv, '/')
	evLen := len(kEv)
	kEvt := append(evtb[:0], "traffic/evt/"...)
	kEvt = append(kEvt, key...)
	kEvt = append(kEvt, '/')
	evtLen := len(kEvt)
	bucket := t.UnixNano() / int64(window)
	for _, b := range [2]int64{bucket, bucket - 1} {
		bStart := time.Unix(0, b*int64(window))
		mean := rate * window.Seconds() * DiurnalWeighted(bStart.Add(window/2), lon, diurn)
		u := m.seed.HashUnitB(strconv.AppendInt(kEv[:evLen], b, 10))
		if u >= 1-math.Exp(-mean) {
			continue
		}
		frac := m.seed.HashUnitB(strconv.AppendInt(kEvt[:evtLen], b, 10))
		evt := bStart.Add(time.Duration(frac * float64(window)))
		if b == bucket && evt.After(t) {
			continue
		}
		if !evt.Before(t.Add(-window)) {
			return evt, true
		}
	}
	return time.Time{}, false
}
