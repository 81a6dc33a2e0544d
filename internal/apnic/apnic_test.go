package apnic

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"clientmap/internal/world"
)

func testWorld(t testing.TB, scale world.Scale) *world.World {
	t.Helper()
	w, err := world.Generate(world.Config{Seed: 71, Scale: scale, Params: world.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestEstimateDeterministic(t *testing.T) {
	w := testWorld(t, world.ScaleTiny)
	a := Estimate(w)
	b := Estimate(w)
	if len(a.Users) != len(b.Users) || math.Abs(a.TotalUsers()-b.TotalUsers()) > 1e-6 {
		t.Fatal("estimates differ across identical runs")
	}
}

func TestCoverageGap(t *testing.T) {
	w := testWorld(t, world.ScaleSmall)
	est := Estimate(w)
	if len(est.Users) == 0 {
		t.Fatal("empty estimates")
	}
	// APNIC covers a strict minority of ASes...
	frac := float64(len(est.Users)) / float64(len(w.ASes))
	if frac > 0.75 {
		t.Errorf("APNIC covers %.0f%% of ASes; should miss the long tail", frac*100)
	}
	// ...but those ASes hold the vast majority of users.
	var covered, total float64
	for _, as := range w.ASes {
		total += as.Users
		if est.Has(as.ASN) {
			covered += as.Users
		}
	}
	if covered/total < 0.9 {
		t.Errorf("APNIC-covered ASes hold only %.0f%% of users, want >90%%", covered/total*100)
	}
}

func TestEstimatesTrackTruthForLargeASes(t *testing.T) {
	w := testWorld(t, world.ScaleSmall)
	est := Estimate(w)
	// Among well-sampled ASes, estimates should correlate with truth:
	// check rank agreement between the top truth AS and its estimate.
	var biggest *world.AS
	for _, as := range w.ASes {
		if biggest == nil || as.Users > biggest.Users {
			biggest = as
		}
	}
	if !est.Has(biggest.ASN) {
		t.Fatalf("largest AS (AS%d, %.0f users) missing from APNIC", biggest.ASN, biggest.Users)
	}
	got := est.Users[biggest.ASN]
	if got < biggest.Users*0.3 || got > biggest.Users*3 {
		t.Errorf("largest AS estimate %.0f vs truth %.0f: off by >3x", got, biggest.Users)
	}
}

func TestHostingUnderrepresented(t *testing.T) {
	w := testWorld(t, world.ScaleSmall)
	est := Estimate(w)
	counts := map[world.Category][2]int{} // [covered, total]
	for _, as := range w.ASes {
		c := counts[as.Category]
		c[1]++
		if est.Has(as.ASN) {
			c[0]++
		}
		counts[as.Category] = c
	}
	isp := counts[world.CategoryISP]
	hosting := counts[world.CategoryHosting]
	if isp[1] == 0 || hosting[1] == 0 {
		t.Skip("world lacks a category")
	}
	ispFrac := float64(isp[0]) / float64(isp[1])
	hostFrac := float64(hosting[0]) / float64(hosting[1])
	if hostFrac >= ispFrac {
		t.Errorf("hosting coverage %.2f >= ISP coverage %.2f; ad-reach bias missing", hostFrac, ispFrac)
	}
}

func TestCountryTotalsConsistent(t *testing.T) {
	w := testWorld(t, world.ScaleTiny)
	est := Estimate(w)
	var sum float64
	for _, u := range est.CountryUsers {
		sum += u
	}
	if math.Abs(sum-est.TotalUsers()) > 1 {
		t.Errorf("country totals %v != AS totals %v", sum, est.TotalUsers())
	}
	// Per-country scaling anchors sampled countries at their truth totals.
	truth := make(map[string]float64)
	for _, as := range w.ASes {
		truth[as.Country] += as.Users
	}
	for code, got := range est.CountryUsers {
		if truth[code] > 0 && math.Abs(got-truth[code])/truth[code] > 0.01 {
			t.Errorf("country %s estimate %.0f != anchored truth %.0f", code, got, truth[code])
		}
	}
}

func TestASNsSorted(t *testing.T) {
	w := testWorld(t, world.ScaleTiny)
	est := Estimate(w)
	asns := est.ASNs()
	for i := 1; i < len(asns); i++ {
		if asns[i-1] >= asns[i] {
			t.Fatal("ASNs not ascending")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	w := testWorld(t, world.ScaleTiny)
	est := Estimate(w)
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Users) != len(est.Users) {
		t.Fatalf("loaded %d ASes, want %d", len(back.Users), len(est.Users))
	}
	for asn, u := range est.Users {
		if math.Abs(back.Users[asn]-u) > 0.01 {
			t.Errorf("AS%d users %v != %v", asn, back.Users[asn], u)
		}
		if back.Impressions[asn] != est.Impressions[asn] {
			t.Errorf("AS%d impressions differ", asn)
		}
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	for _, in := range []string{"1,2", "x,1,2", "1,x,2", "1,2,x"} {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("Load(%q) succeeded", in)
		}
	}
	est, err := Load(strings.NewReader("# comment\nasn,users,impressions\n64500,10.50,3\n"))
	if err != nil || est.Users[64500] != 10.5 || est.Impressions[64500] != 3 {
		t.Errorf("Load valid: %v %+v", err, est)
	}
}

// Load parses the CSV form written by Save.
func Load(r io.Reader) (*Estimates, error) {
	e := &Estimates{
		Users:        make(map[uint32]float64),
		Impressions:  make(map[uint32]int),
		CountryUsers: make(map[string]float64),
	}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text == "asn,users,impressions" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("apnic: line %d: want 3 fields, got %d", line, len(parts))
		}
		asn, err := strconv.ParseUint(parts[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("apnic: line %d: bad asn: %v", line, err)
		}
		users, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("apnic: line %d: bad users: %v", line, err)
		}
		impressions, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("apnic: line %d: bad impressions: %v", line, err)
		}
		e.Users[uint32(asn)] = users
		e.Impressions[uint32(asn)] = impressions
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return e, nil
}

// Has reports whether the dataset includes asn.
func (e *Estimates) Has(asn uint32) bool {
	_, ok := e.Users[asn]
	return ok
}

// ASNs returns the covered ASNs in ascending order.
func (e *Estimates) ASNs() []uint32 {
	out := make([]uint32, 0, len(e.Users))
	for asn := range e.Users {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Save writes the estimates in the published dataset's CSV-like form:
// "asn,users,impressions" per line, ascending by ASN.
func (e *Estimates) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "asn,users,impressions"); err != nil {
		return err
	}
	for _, asn := range e.ASNs() {
		if _, err := fmt.Fprintf(bw, "%d,%.2f,%d\n", asn, e.Users[asn], e.Impressions[asn]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
