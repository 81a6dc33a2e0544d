package roots

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"clientmap/internal/anycast"
	"clientmap/internal/clockx"
	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
	"clientmap/internal/traffic"
	"clientmap/internal/world"
)

type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, "J")
	if err != nil {
		t.Fatal(err)
	}
	base := clockx.Epoch
	recs := []Record{
		{Time: base, Src: netx.MustParseAddr("192.0.2.53"), QName: "abcdefgh", QType: dnswire.TypeA, Weight: 1},
		{Time: base.Add(137 * time.Millisecond), Src: netx.MustParseAddr("10.0.0.53"), QName: "columbia", QType: dnswire.TypeA, Weight: 3},
		{Time: base.Add(2 * time.Second), Src: netx.MustParseAddr("172.16.0.1"), QName: "x.com", QType: dnswire.TypeNS, Weight: 1},
	}
	for _, r := range recs {
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if tw.Count() != 3 {
		t.Errorf("Count = %d", tw.Count())
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		got, err := tr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !got.Time.Equal(want.Time) || got.Src != want.Src || got.QName != want.QName ||
			got.QType != want.QType || got.Weight != want.Weight {
			t.Errorf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := tr.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewWriter(&buf, "A")
	base := clockx.Epoch
	if err := tw.Write(Record{Time: base.Add(time.Hour), QName: "abcdefg"}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(Record{Time: base, QName: "abcdefg"}); err == nil {
		t.Error("out-of-order record accepted")
	}
}

func TestWriterDefaultsWeight(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewWriter(&buf, "A")
	if err := tw.Write(Record{Time: clockx.Epoch, QName: "abcdefg"}); err != nil {
		t.Fatal(err)
	}
	tw.Close()
	tr, _ := NewReader(&buf)
	rec, err := tr.Next()
	if err != nil || rec.Weight != 1 {
		t.Errorf("weight = %d, err = %v; want 1", rec.Weight, err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(strings.NewReader("not a trace")); err == nil {
		t.Error("garbage header accepted")
	}
	if _, err := NewReader(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
}

func genTest(t testing.TB, dur time.Duration) (map[string]*bytes.Buffer, Stats, *Generator) {
	t.Helper()
	g := tinyGenerator(t)
	bufs, stats := genLetters(t, g, dur, nil)
	return bufs, stats, g
}

func tinyGenerator(t testing.TB) *Generator {
	t.Helper()
	w, err := world.Generate(world.Config{Seed: 41, Scale: world.ScaleTiny, Params: world.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	router := anycast.NewRouter(41, anycast.Catalog())
	return NewGenerator(traffic.NewModel(w, router, traffic.DefaultTunables()))
}

// genLetters generates the given letters (nil for all 13) into buffers.
func genLetters(t testing.TB, g *Generator, dur time.Duration, letters []string) (map[string]*bytes.Buffer, Stats) {
	t.Helper()
	bufs := make(map[string]*bytes.Buffer)
	stats, err := g.Generate(GenConfig{Start: clockx.Epoch, Duration: dur, Letters: letters}, func(letter string) (io.WriteCloser, error) {
		b := &bytes.Buffer{}
		bufs[letter] = b
		return nopCloser{b}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return bufs, stats
}

// TestGenerateLetterSubset: a letter subset draws every record's letter
// over all 13 roots and keeps only its own, so each kept letter's trace
// is byte-identical to the same letter of an all-letter run, and the
// stats count the kept records alone.
func TestGenerateLetterSubset(t *testing.T) {
	g := tinyGenerator(t)
	all, allStats := genLetters(t, g, 6*time.Hour, nil)
	sub, subStats := genLetters(t, g, 6*time.Hour, DITLLetters)
	if len(sub) != len(DITLLetters) {
		t.Fatalf("subset run opened %d sinks, want %d", len(sub), len(DITLLetters))
	}
	for _, l := range DITLLetters {
		if sub[l].Len() <= len(traceMagic)+1 {
			t.Errorf("letter %s: empty trace", l)
		}
		if !bytes.Equal(sub[l].Bytes(), all[l].Bytes()) {
			t.Errorf("letter %s: subset trace (%d B) differs from the all-letter run's (%d B)", l, sub[l].Len(), all[l].Len())
		}
	}
	if subStats.Records == 0 || subStats.Records >= allStats.Records {
		t.Errorf("subset records %d, all-letter records %d", subStats.Records, allStats.Records)
	}
	for _, bad := range [][]string{{"Z"}, {"J", "J"}} {
		closes := 0
		if _, err := g.Generate(GenConfig{Duration: time.Hour, Letters: bad}, func(string) (io.WriteCloser, error) {
			return &countingSink{closes: &closes, failAfter: -1}, nil
		}); err == nil {
			t.Errorf("letters %q accepted", bad)
		}
		if want := len(bad) - 1; closes != want {
			t.Errorf("letters %q: closed %d sinks, want %d", bad, closes, want)
		}
	}
}

// countingSink counts Close calls, fails every Write after failAfter
// bytes (never when failAfter is negative), and fails its Close when
// failClose is set.
type countingSink struct {
	closes    *int
	written   int
	failAfter int
	failClose bool
}

func (s *countingSink) Write(p []byte) (int, error) {
	if s.failAfter >= 0 && s.written+len(p) > s.failAfter {
		return 0, errors.New("disk full")
	}
	s.written += len(p)
	return len(p), nil
}

func (s *countingSink) Close() error {
	*s.closes++
	if s.failClose {
		return errors.New("close failed")
	}
	return nil
}

// TestGenerateClosesSinksOnError: every sink open returned is closed
// exactly once, whether a later open fails, a write fails mid-run or a
// sink's own Close fails.
func TestGenerateClosesSinksOnError(t *testing.T) {
	g := tinyGenerator(t)
	cases := []struct {
		name      string
		failOpen  int // 1-based open that fails; 0 never
		failAfter int
		failClose bool
		wantOpen  int
	}{
		{"third open fails", 3, -1, false, 2},
		{"write fails mid-run", 0, 1 << 12, false, len(Letters)},
		{"close fails", 0, -1, true, len(Letters)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opened, closes := 0, 0
			_, err := g.Generate(GenConfig{Start: clockx.Epoch, Duration: 6 * time.Hour}, func(string) (io.WriteCloser, error) {
				if opened+1 == tc.failOpen {
					return nil, errors.New("open refused")
				}
				opened++
				return &countingSink{closes: &closes, failAfter: tc.failAfter, failClose: tc.failClose}, nil
			})
			if err == nil {
				t.Fatal("error swallowed")
			}
			if opened != tc.wantOpen || closes != opened {
				t.Errorf("opened %d sinks (want %d), closed %d", opened, tc.wantOpen, closes)
			}
		})
	}
}

func TestGenerateProducesAllLetters(t *testing.T) {
	bufs, stats, _ := genTest(t, 6*time.Hour)
	if len(bufs) != len(Letters) {
		t.Fatalf("generated %d letters", len(bufs))
	}
	if stats.Records == 0 || stats.Chromium == 0 || stats.Junk == 0 {
		t.Fatalf("empty stats: %+v", stats)
	}
	if stats.WeightTotal < uint64(stats.Records) {
		t.Errorf("weight total %d below record count %d", stats.WeightTotal, stats.Records)
	}

	total := 0
	for letter, buf := range bufs {
		tr, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", letter, err)
		}
		last := time.Time{}
		for {
			rec, err := tr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", letter, err)
			}
			if rec.Time.Before(last) {
				t.Fatalf("%s: records out of order", letter)
			}
			last = rec.Time
			total++
		}
	}
	if total != stats.Records {
		t.Errorf("read %d records, stats say %d", total, stats.Records)
	}
}

func TestGenerateChromiumNamesLookRandom(t *testing.T) {
	bufs, _, gen := genTest(t, 4*time.Hour)
	egress := map[netx.Addr]bool{}
	for _, a := range gen.GoogleEgress() {
		egress[a] = true
	}
	nameCounts := map[string]int{}
	sawGoogleSource := false
	for _, buf := range bufs {
		tr, _ := NewReader(bytes.NewReader(buf.Bytes()))
		for {
			rec, err := tr.Next()
			if err != nil {
				break
			}
			if egress[rec.Src] {
				sawGoogleSource = true
			}
			if !strings.Contains(rec.QName, ".") && len(rec.QName) >= 7 && len(rec.QName) <= 15 {
				nameCounts[rec.QName]++
			}
		}
	}
	if !sawGoogleSource {
		t.Error("no root queries from Google Public DNS egress addresses")
	}
	// Unique random names dominate; junk/DGA names repeat heavily.
	unique, repeated := 0, 0
	for name, n := range nameCounts {
		if n == 1 {
			unique++
		}
		if n > 7 {
			repeated++
			// The repeated ones must be junk or DGA, not fresh randomness:
			// 40 DGA names + the junk dictionary bounds the repeat set.
			_ = name
		}
	}
	if unique < 100 {
		t.Errorf("only %d unique random-label names", unique)
	}
	if repeated == 0 {
		t.Error("no heavily repeated single-label names; collision filter untestable")
	}
	if repeated > 60 {
		t.Errorf("%d heavily repeated names, expected bounded junk+DGA set", repeated)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _, _ := genTest(t, 2*time.Hour)
	b, _, _ := genTest(t, 2*time.Hour)
	for letter := range a {
		if !bytes.Equal(a[letter].Bytes(), b[letter].Bytes()) {
			t.Fatalf("letter %s traces differ across identical runs", letter)
		}
	}
}

func TestGenerateWeightCap(t *testing.T) {
	// With a tiny cap, heavy sources must emit weighted records.
	w, err := world.Generate(world.Config{Seed: 43, Scale: world.ScaleTiny, Params: world.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	router := anycast.NewRouter(43, anycast.Catalog())
	model := traffic.NewModel(w, router, traffic.DefaultTunables())
	g := NewGenerator(model)
	bufs := make(map[string]*bytes.Buffer)
	_, err = g.Generate(GenConfig{
		Start: clockx.Epoch, Duration: 2 * time.Hour,
		PerSourceHourCap: 3, Letters: []string{"J"},
	}, func(letter string) (io.WriteCloser, error) {
		b := &bytes.Buffer{}
		bufs[letter] = b
		return nopCloser{b}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := NewReader(bytes.NewReader(bufs["J"].Bytes()))
	weighted := false
	for {
		rec, err := tr.Next()
		if err != nil {
			break
		}
		if rec.Weight > 1 {
			weighted = true
		}
	}
	if !weighted {
		t.Error("no weighted records despite cap of 3")
	}
}

// TestTraceRoundTripQuick property-checks the binary format: any ordered
// sequence of records survives a write/read cycle.
func TestTraceRoundTripQuick(t *testing.T) {
	f := func(srcs []uint32, weights []uint16, deltas []uint16) bool {
		n := len(srcs)
		if len(weights) < n {
			n = len(weights)
		}
		if len(deltas) < n {
			n = len(deltas)
		}
		if n == 0 {
			return true
		}
		var buf bytes.Buffer
		tw, err := NewWriter(&buf, "K")
		if err != nil {
			return false
		}
		names := []string{"abcdefg", "columbia", "x.com", "zzzzzzzzzzzzzzz"}
		ts := clockx.Epoch
		var want []Record
		for i := 0; i < n; i++ {
			ts = ts.Add(time.Duration(deltas[i]) * time.Microsecond)
			rec := Record{
				Time:   ts,
				Src:    netx.Addr(srcs[i]),
				QName:  names[i%len(names)],
				QType:  dnswire.TypeA,
				Weight: uint32(weights[i])%1000 + 1,
			}
			if err := tw.Write(rec); err != nil {
				return false
			}
			want = append(want, rec)
		}
		if err := tw.Close(); err != nil {
			return false
		}
		tr, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for _, w := range want {
			got, err := tr.Next()
			if err != nil {
				return false
			}
			if !got.Time.Equal(w.Time) || got.Src != w.Src || got.QName != w.QName || got.Weight != w.Weight {
				return false
			}
		}
		_, err = tr.Next()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReaderTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewWriter(&buf, "A")
	_ = tw.Write(Record{Time: clockx.Epoch, QName: "abcdefg", Src: 1})
	_ = tw.Write(Record{Time: clockx.Epoch.Add(time.Second), QName: "hijklmn", Src: 2})
	_ = tw.Close()
	whole := buf.Bytes()

	// Any strict prefix either yields fewer records or a non-EOF error —
	// never a panic or phantom records.
	for cut := len(whole) - 1; cut > len(traceMagic); cut -= 3 {
		tr, err := NewReader(bytes.NewReader(whole[:cut]))
		if err != nil {
			continue // header itself truncated
		}
		count := 0
		for {
			_, err := tr.Next()
			if err != nil {
				break
			}
			count++
			if count > 2 {
				t.Fatal("phantom records from truncated stream")
			}
		}
	}
}

// GoogleEgress returns the per-PoP root-query source addresses (all within
// the synthetic Google AS's /16).
func (g *Generator) GoogleEgress() map[int]netx.Addr {
	out := make(map[int]netx.Addr, len(g.googleEgress))
	for k, v := range g.googleEgress {
		out[k] = v
	}
	return out
}

// Count returns how many records have been written.
func (tw *Writer) Count() int { return tw.count }
