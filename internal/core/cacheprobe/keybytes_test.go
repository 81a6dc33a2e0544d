package cacheprobe

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"clientmap/internal/clockx"
	"clientmap/internal/dnswire"
	"clientmap/internal/domains"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
)

// TestTxidBaseMatchesStringHash pins the transaction-id derivation against
// the string-concatenation hash it replaced. Transaction ids select cache
// pools at the simulated resolver front end, so any drift here moves every
// probe's pool assignment and breaks the golden corpora.
func TestTxidBaseMatchesStringHash(t *testing.T) {
	p := &Prober{cfg: Config{Seed: randx.Seed(2021)}}
	keys := []string{
		"probe/0/fra/en.wikipedia.org/10.0.0.0/16",
		"calib/ams/3/www.google.com",
		"discover/vantage-a",
	}
	for _, k := range keys {
		want := uint16(p.cfg.Seed.Hash64("cacheprobe/txid/" + k))
		if got := p.txidBase([]byte(k)); got != want {
			t.Errorf("txidBase(%q) = %d, string-hash derivation = %d", k, got, want)
		}
	}
	// The probe loop's form: the state after a batch's
	// "probe/<pass>/<pop>/" prefix, continued by each task's
	// "<domain>/<scope>" tail, is the hash of the whole Sprintf key.
	scope := netx.MustParsePrefix("198.51.100.0/22")
	for _, pass := range []int{0, 7, 12, 103} {
		for _, pop := range []string{"fra", "sjc2", "gru10"} {
			prefix := fmt.Sprintf("probe/%d/%s/", pass, pop)
			st := p.txidState([]byte(prefix))
			for _, domain := range []string{"en.wikipedia.org", "www.google.com"} {
				tail := scope.AppendTo([]byte(domain + "/"))
				full := fmt.Sprintf("cacheprobe/txid/probe/%d/%s/%s/%s", pass, pop, domain, scope)
				if got, want := st.Extend(tail).Hash64(), p.cfg.Seed.Hash64(full); got != want {
					t.Errorf("state after %q continued by %q = %x, Hash64(%q) = %x", prefix, tail, got, full, want)
				}
			}
		}
	}
}

// TestTxidAtAvoidsZero: attempt offsets never produce the reserved id 0.
func TestTxidAtAvoidsZero(t *testing.T) {
	if got := txidAt(0xFFFF, 1); got != 1 {
		t.Errorf("txidAt(0xFFFF, 1) = %d, want 1 (wraps to 0, clamps to 1)", got)
	}
	if got := txidAt(7, 3); got != 10 {
		t.Errorf("txidAt(7, 3) = %d, want 10", got)
	}
}

// TestProbeKeyBytesMatchSprintf pins the probe-task content key layout —
// "probe/<pass>/<pop>/<domain>/<scope>" with the redundancy attempt
// appended — against the fmt.Sprintf renderings the hot loop replaced.
func TestProbeKeyBytesMatchSprintf(t *testing.T) {
	const (
		pass   = 3
		pop    = "fra"
		domain = "en.wikipedia.org"
	)
	scope := netx.MustParsePrefix("198.51.100.0/22")

	// Mirrors ProbePass's per-chunk buffer: prefix written once, the
	// per-task tail re-appended after truncating to the prefix length.
	var keyBuf [192]byte
	kb := append(keyBuf[:0], "probe/"...)
	kb = strconv.AppendInt(kb, pass, 10)
	kb = append(kb, '/')
	kb = append(kb, pop...)
	kb = append(kb, '/')
	popLen := len(kb)
	key := append(kb[:popLen], domain...)
	key = append(key, '/')
	key = scope.AppendTo(key)
	kLen := len(key)

	want := fmt.Sprintf("probe/%d/%s/%s/%s", pass, pop, domain, scope)
	if string(key) != want {
		t.Errorf("task key = %q, want %q", key, want)
	}
	for a := 0; a < 3; a++ {
		ak := strconv.AppendInt(append(key[:kLen], '/'), int64(a), 10)
		if got, want := string(ak), fmt.Sprintf("%s/%d", want, a); got != want {
			t.Errorf("attempt key = %q, want %q", got, want)
		}
	}
}

// questionRecorder records each query's id and question name and
// answers none of them.
type questionRecorder struct {
	ids   []uint16
	names []string
}

func (e *questionRecorder) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	e.ids = append(e.ids, q.ID)
	e.names = append(e.names, q.Question().Name)
	return nil, errors.New("no answer")
}

// TestMixedCaseCatalogNameProbes: the prober canonicalises a catalog
// name once for its questions, while the content keys keep hashing the
// raw name, so a mixed-case name asks the canonical question under the
// transaction ids its raw-name keys always gave.
func TestMixedCaseCatalogNameProbes(t *testing.T) {
	const (
		raw  = "En.Wikipedia.ORG"
		pass = 12
	)
	scopes := []netx.Prefix{netx.MustParsePrefix("10.1.0.0/16"), netx.MustParsePrefix("203.0.113.0/24")}
	cfg := Config{
		Seed: randx.Seed(2021), Clock: clockx.NewSim(clockx.Epoch),
		Domains:  []domains.Domain{{Name: raw, SupportsECS: true}},
		Duration: 2 * time.Hour, Passes: 16, Workers: 1,
	}
	asg := &Assignments{popNames: []string{"ams"}, tasks: [][]probeTask{nil}, domains: []string{raw}}
	for _, sc := range scopes {
		asg.tasks[0] = append(asg.tasks[0], probeTask{scope: sc})
	}
	rec := &questionRecorder{}
	pops := map[string]*Vantage{"ams": {Name: "vm-ams", Exchanger: rec, Server: "gpdns"}}
	p := NewProber(cfg, nil, Authoritative{})
	if _, err := p.ProbePassDelta(context.Background(), pops, asg, pass, clockx.Epoch, NewCampaign()); err != nil {
		t.Fatal(err)
	}
	red := p.cfg.Redundancy
	if len(rec.ids) != red*len(scopes) {
		t.Fatalf("%d probes sent, want %d", len(rec.ids), red*len(scopes))
	}
	for i, sc := range scopes {
		base := uint16(p.cfg.Seed.Hash64(fmt.Sprintf("cacheprobe/txid/probe/%d/ams/%s/%s", pass, raw, sc)))
		for a := 0; a < red; a++ {
			k := i*red + a
			if rec.names[k] != "en.wikipedia.org" {
				t.Errorf("probe %d asks %q, want the canonical name", k, rec.names[k])
			}
			if want := txidAt(base, a); rec.ids[k] != want {
				t.Errorf("probe %d of %v has id %d, the raw-name key gives %d", a, sc, rec.ids[k], want)
			}
		}
	}
}
