package serve

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"clientmap/internal/clockx"
	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
)

// testDNSHandler builds a handler over the fixture index with no rate
// limit (tests that need one install their own).
func testDNSHandler(t testing.TB) (*DNSHandler, *Store) {
	t.Helper()
	store := NewStore()
	store.Swap(testClientMap(t), "fixturehash0001")
	return newTestDNSHandler(store), store
}

// newTestDNSHandler builds a handler over store the way the daemon does,
// with no rate limit and a private registry.
func newTestDNSHandler(store *Store) *DNSHandler {
	return newDNSHandler(store, nil, DefaultZone, 60, newServeMetrics(nil))
}

func TestParseReverseNameRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2021))
	for i := 0; i < 2000; i++ {
		a := netx.Addr(r.Uint32())
		name := FormatReverseName(a, DefaultZone)
		got, ok := ParseReverseName(name, DefaultZone)
		if !ok || got != a {
			t.Fatalf("round trip broke for %v: name %q parsed to %v (ok %v)", a, name, got, ok)
		}
	}
}

func TestParseReverseNameRejects(t *testing.T) {
	bad := []string{
		"",
		"clientmap",
		"1.2.3.clientmap",         // three octets
		"1.2.3.4.5.clientmap",     // five octets
		"256.0.0.1.clientmap",     // octet out of range
		"1.2.3.999.clientmap",     // octet out of range
		"01.2.3.4.clientmap",      // leading zero
		"00.2.3.4.clientmap",      // leading zero
		"1.2.3.4.otherzone",       // wrong zone
		"1.2.3.4.clientmap.extra", // trailing garbage
		"a.2.3.4.clientmap",       // non-digit
		"-1.2.3.4.clientmap",      // sign
		"1..3.4.clientmap",        // empty label
		"1.2.3.4444.clientmap",    // four digits
		"1.2.3.4.as.clientmap",    // AS form is not a reverse name
		" 1.2.3.4.clientmap",      // whitespace
		"1.2.3.4.clientmap ",      // whitespace
		"1.2.3.+4.clientmap",      // plus sign
		"0x1.2.3.4.clientmap",     // hex
		"1.2.3.4.cli",             // truncated zone
		strings.Repeat("1.", 200), // hostile length
	}
	for _, name := range bad {
		if a, ok := ParseReverseName(name, DefaultZone); ok {
			t.Errorf("ParseReverseName(%q) accepted as %v", name, a)
		}
	}
}

func TestParseASName(t *testing.T) {
	for _, asn := range []uint32{0, 1, 64500, 4294967295} {
		name := FormatASName(asn, DefaultZone)
		got, ok := ParseASName(name, DefaultZone)
		if !ok || got != asn {
			t.Fatalf("AS round trip broke for %d: %q → %d (%v)", asn, name, got, ok)
		}
	}
	for _, bad := range []string{
		"as.clientmap", ".as.clientmap", "01.as.clientmap",
		"4294967296.as.clientmap", "99999999999.as.clientmap",
		"x.as.clientmap", "64500.as.other", "64500.clientmap",
	} {
		if got, ok := ParseASName(bad, DefaultZone); ok {
			t.Errorf("ParseASName(%q) accepted as %d", bad, got)
		}
	}
}

func query(name string, qt dnswire.Type) *dnswire.Message {
	return dnswire.NewQuery(4242, name, qt)
}

func serveOne(h *DNSHandler, q *dnswire.Message) *dnswire.Message {
	return h.ServeDNS(context.Background(), netx.AddrFrom4(127, 0, 0, 1), q)
}

func TestDNSActiveA(t *testing.T) {
	h, _ := testDNSHandler(t)
	r := serveOne(h, query("17.2.0.192.clientmap", dnswire.TypeA))
	if r.ID != 4242 || !r.Response || r.RCode != dnswire.RCodeSuccess {
		t.Fatalf("header = %+v", r)
	}
	if len(r.Answers) != 1 {
		t.Fatalf("answers = %+v", r.Answers)
	}
	a, ok := r.Answers[0].Data.(dnswire.A)
	if !ok || a.Addr != ActiveA {
		t.Fatalf("answer = %+v", r.Answers[0])
	}
}

func TestDNSActiveTXT(t *testing.T) {
	h, _ := testDNSHandler(t)
	r := serveOne(h, query("17.2.0.192.clientmap", dnswire.TypeTXT))
	if len(r.Answers) != 1 {
		t.Fatalf("answers = %+v", r.Answers)
	}
	txt, ok := r.Answers[0].Data.(dnswire.TXT)
	if !ok || len(txt.Strings) != 1 {
		t.Fatalf("answer = %+v", r.Answers[0])
	}
	s := txt.Strings[0]
	for _, want := range []string{"active=1", "scope=192.0.2.0/24", "asn=64500", "pops=fra:7", "gen=1", "passes=4/4"} {
		if !strings.Contains(s, want) {
			t.Errorf("TXT %q missing %q", s, want)
		}
	}
	if len(s) > 255 {
		t.Errorf("TXT string %d bytes exceeds one character-string", len(s))
	}
}

func TestDNSInactiveNXDomain(t *testing.T) {
	h, _ := testDNSHandler(t)
	r := serveOne(h, query("1.1.168.192.clientmap", dnswire.TypeA))
	if r.RCode != dnswire.RCodeNXDomain || len(r.Answers) != 0 {
		t.Fatalf("inactive = %+v", r)
	}
	if len(r.Authority) != 1 {
		t.Fatalf("authority = %+v", r.Authority)
	}
	if _, ok := r.Authority[0].Data.(dnswire.SOA); !ok {
		t.Fatalf("authority RR = %+v", r.Authority[0])
	}
}

func TestDNSASQuery(t *testing.T) {
	h, _ := testDNSHandler(t)
	r := serveOne(h, query("64500.as.clientmap", dnswire.TypeTXT))
	if r.RCode != dnswire.RCodeSuccess || len(r.Answers) != 1 {
		t.Fatalf("as query = %+v", r)
	}
	s := r.Answers[0].Data.(dnswire.TXT).Strings[0]
	for _, want := range []string{"asn=64500", "active24=3", "announced24=5"} {
		if !strings.Contains(s, want) {
			t.Errorf("AS TXT %q missing %q", s, want)
		}
	}
	if r = serveOne(h, query("65000.as.clientmap", dnswire.TypeA)); r.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("unknown AS = %+v", r)
	}
}

func TestDNSApexSOA(t *testing.T) {
	h, _ := testDNSHandler(t)
	r := serveOne(h, query("clientmap", dnswire.TypeSOA))
	if r.RCode != dnswire.RCodeSuccess || len(r.Answers) != 1 {
		t.Fatalf("apex SOA = %+v", r)
	}
	soa := r.Answers[0].Data.(dnswire.SOA)
	if soa.Serial != 1 {
		t.Errorf("SOA serial = %d, want generation 1", soa.Serial)
	}
}

func TestDNSRefusesOutOfZone(t *testing.T) {
	h, _ := testDNSHandler(t)
	for _, name := range []string{"example.com", "17.2.0.192.example.com", "notclientmap"} {
		if r := serveOne(h, query(name, dnswire.TypeA)); r.RCode != dnswire.RCodeRefused {
			t.Errorf("%q = rcode %v, want REFUSED", name, r.RCode)
		}
	}
}

func TestDNSNotImp(t *testing.T) {
	h, _ := testDNSHandler(t)
	resp := query("17.2.0.192.clientmap", dnswire.TypeA)
	resp.Response = true
	if r := serveOne(h, resp); r.RCode != dnswire.RCodeNotImp {
		t.Fatalf("response-bit query = %v", r.RCode)
	}
	empty := &dnswire.Message{ID: 9}
	if r := serveOne(h, empty); r.RCode != dnswire.RCodeNotImp {
		t.Fatalf("question-less query = %v", r.RCode)
	}
}

func TestDNSServFailBeforeLoad(t *testing.T) {
	h := newTestDNSHandler(NewStore())
	if r := serveOne(h, query("1.2.0.192.clientmap", dnswire.TypeA)); r.RCode != dnswire.RCodeServFail {
		t.Fatalf("empty store = %v", r.RCode)
	}
}

func TestDNSMixedCaseCanonicalized(t *testing.T) {
	h, _ := testDNSHandler(t)
	r := serveOne(h, query("17.2.0.192.CLIENTMAP.", dnswire.TypeA))
	if r.RCode != dnswire.RCodeSuccess || len(r.Answers) != 1 {
		t.Fatalf("mixed-case query = %+v", r)
	}
}

// TestDNSCacheHitBytesIdentical is the satellite property for the DNS
// path: a cached response must marshal to exactly the cold response's
// wire bytes (modulo the echoed query ID, held equal here).
func TestDNSCacheHitBytesIdentical(t *testing.T) {
	h, _ := testDNSHandler(t)
	names := []string{
		"17.2.0.192.clientmap", "1.100.51.198.clientmap",
		"64500.as.clientmap", "9.9.9.9.clientmap", "clientmap",
	}
	for _, name := range names {
		for _, qt := range []dnswire.Type{dnswire.TypeA, dnswire.TypeTXT, dnswire.TypeSOA} {
			cold := serveOne(h, query(name, qt))
			coldBytes, err := cold.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			hot := serveOne(h, query(name, qt))
			hotBytes, err := hot.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if string(coldBytes) != string(hotBytes) {
				t.Fatalf("%s %v: cache hit changed wire bytes", name, qt)
			}
		}
	}
	if h.met.dnsCacheHits.Value() == 0 {
		t.Fatal("no cache hits recorded — the property was not exercised")
	}
}

func TestDNSCacheHitPreservesDistinctIDs(t *testing.T) {
	h, _ := testDNSHandler(t)
	serveOne(h, query("17.2.0.192.clientmap", dnswire.TypeA))
	r := h.ServeDNS(context.Background(), netx.AddrFrom4(127, 0, 0, 1),
		dnswire.NewQuery(7, "17.2.0.192.clientmap", dnswire.TypeA))
	if r.ID != 7 {
		t.Fatalf("cached response carries ID %d, want the query's 7", r.ID)
	}
}

func TestDNSRateLimitRefuses(t *testing.T) {
	h, _ := testDNSHandler(t)
	clock := clockx.NewSim(clockx.Epoch)
	h.limits = NewLimiter(LimiterConfig{Clock: clock, Rate: 1, Burst: 2})
	client := netx.AddrFrom4(10, 1, 2, 3)
	q := query("17.2.0.192.clientmap", dnswire.TypeA)
	for i := 0; i < 2; i++ {
		if r := h.ServeDNS(context.Background(), client, q); r.RCode != dnswire.RCodeSuccess {
			t.Fatalf("burst query %d = %v", i, r.RCode)
		}
	}
	if r := h.ServeDNS(context.Background(), client, q); r.RCode != dnswire.RCodeRefused {
		t.Fatalf("over-limit query = %v, want REFUSED", r.RCode)
	}
	if h.met.dnsRateLimited.Value() != 1 {
		t.Errorf("rate_limited counter = %d", h.met.dnsRateLimited.Value())
	}
}
