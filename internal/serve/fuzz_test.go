package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
)

// FuzzReverseName throws malformed labels, out-of-range octets, mixed
// case, truncation and hostile lengths at the reverse-name parser. The
// invariants: never panic, and every accepted name is exactly the
// canonical rendering of the parsed address (bijectivity).
func FuzzReverseName(f *testing.F) {
	seeds := []string{
		"17.2.0.192.clientmap",
		"0.0.0.0.clientmap",
		"255.255.255.255.clientmap",
		"256.0.0.1.clientmap",
		"1.2.3.clientmap",
		"1.2.3.4.5.clientmap",
		"01.2.3.4.clientmap",
		"1.2.3.4444.clientmap",
		"a.b.c.d.clientmap",
		"17.2.0.192.CLIENTMAP",
		"17.2.0.192.clientmap.",
		"-1.2.3.4.clientmap",
		"1..3.4.clientmap",
		"64500.as.clientmap",
		"clientmap",
		"",
		strings.Repeat("9.", 120) + "clientmap",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		a, ok := ParseReverseName(name, DefaultZone)
		if !ok {
			return
		}
		// Accepted names must round-trip to themselves: the parser takes
		// canonical form only, so formatting the result reproduces the
		// input exactly.
		if got := FormatReverseName(a, DefaultZone); got != name {
			t.Fatalf("non-canonical name accepted: %q parsed to %v, canonical %q", name, a, got)
		}

		// AS names and reverse names must never overlap.
		if _, asOK := ParseASName(name, DefaultZone); asOK {
			t.Fatalf("name %q parsed as both reverse and AS", name)
		}
	})
}

// FuzzASName mirrors FuzzReverseName for the AS form.
func FuzzASName(f *testing.F) {
	for _, s := range []string{
		"64500.as.clientmap", "0.as.clientmap", "4294967295.as.clientmap",
		"4294967296.as.clientmap", "01.as.clientmap", "as.clientmap",
		"x.as.clientmap", "1.2.3.4.as.clientmap", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		asn, ok := ParseASName(name, DefaultZone)
		if !ok {
			return
		}
		if got := FormatASName(asn, DefaultZone); got != name {
			t.Fatalf("non-canonical AS name accepted: %q → %d → %q", name, asn, got)
		}
	})
}

// FuzzHTTPQuery drives the HTTP handler with hostile paths and query
// strings. Invariants: no panic, a response is always written, and the
// status is from the handler's documented set.
func FuzzHTTPQuery(f *testing.F) {
	seeds := []string{
		"/v1/ip/192.0.2.17",
		"/v1/ip/",
		"/v1/ip/..%2f..%2fetc%2fpasswd",
		"/v1/ip/192.0.2.17/extra",
		"/v1/ip/999.999.999.999",
		"/v1/as/64500",
		"/v1/as/-1",
		"/v1/as/184467440737095516150",
		"/v1/summary",
		"/v1/summary?x=" + strings.Repeat("a", 4096),
		"/healthz",
		"/",
		"//v1//ip//1.2.3.4",
		"/v1/ip/1.2.3.4?a=b&c=d",
		"/v1/ip/%00%01%02",
		"/debug/pprof",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	store := NewStore()
	cmSeed := Build(BuildInput{Meta: Meta{Seed: 1, Scale: "fuzz", Passes: 2}, Campaign: testCampaign()})
	store.Swap(cmSeed, "fuzzhash")
	h := &HTTPHandler{store: store, met: newServeMetrics(nil)}

	allowed := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusMethodNotAllowed: true, http.StatusTooManyRequests: true,
		http.StatusServiceUnavailable: true,
	}
	f.Fuzz(func(t *testing.T, rawPath string) {
		req, err := http.NewRequest(http.MethodGet, "http://x", nil)
		if err != nil {
			return
		}
		// Bypass URL validation the router would never see anyway; the
		// handler must cope with whatever ends up in URL.Path.
		req.URL.Path = rawPath
		req.RemoteAddr = "127.0.0.1:9"
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if !allowed[w.Code] {
			t.Fatalf("path %q produced status %d", rawPath, w.Code)
		}
		if w.Body.Len() == 0 {
			t.Fatalf("path %q produced an empty body", rawPath)
		}
	})
}

// FuzzParseIPv4 checks the HTTP address parser agrees with the DNS
// octet rules: accepted strings must round-trip through the reverse
// name formatter's octet rendering.
func FuzzParseIPv4(f *testing.F) {
	for _, s := range []string{"1.2.3.4", "0.0.0.0", "255.255.255.255", "256.1.1.1", "01.1.1.1", "", "1.2.3", "1.2.3.4.5"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, ok := parseIPv4(s)
		if !ok {
			return
		}
		b0, b1, b2, b3 := a.Octets()
		if got := netx.AddrFrom4(b0, b1, b2, b3); got != a {
			t.Fatalf("octet decomposition broke for %q", s)
		}
	})
}

// FuzzServeWire feeds raw datagrams to the live DNS answer path the way
// a socket loop does — decode into a reused message, append the reply
// into a reused buffer — over the fixture index. Invariants: no panic;
// a reply, if there is one, decodes and echoes the query's ID; and
// whenever the datagram decodes as a query, the reply is byte for byte
// the oracle's (or absent where the oracle's cannot be marshalled),
// first built and then again from the cache. Seeded with the golden
// corpus's queries.
func FuzzServeWire(f *testing.F) {
	data, err := os.ReadFile(goldenServePath)
	if err != nil {
		f.Fatal(err)
	}
	var golden goldenServe
	if err := json.Unmarshal(data, &golden); err != nil {
		f.Fatal(err)
	}
	keys := make([]string, 0, len(golden.DNS))
	for key := range golden.DNS {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		name, qt, _ := strings.Cut(key, "/")
		t, err := strconv.Atoi(qt)
		if err != nil {
			f.Fatal(err)
		}
		wire, err := dnswire.NewQuery(4242, name, dnswire.Type(t)).Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte{})
	f.Add([]byte("\x00\x07\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00\x02ns\x09CLIENTMAP\x00\x00\x06\x00\x01"))

	h, store := testDNSHandler(f)
	ix := store.Current()
	var query dnswire.Message
	buf := make([]byte, 0, 512)
	f.Fuzz(func(t *testing.T, datagram []byte) {
		if dnswire.UnmarshalInto(&query, datagram) != nil {
			return // the loop drops what it cannot decode
		}
		want, err := oracleDNS(DefaultZone, 60, ix, &query).Marshal()
		for _, pass := range []string{"built", "cached"} {
			buf = h.AppendDNS(buf[:0], netx.AddrFrom4(127, 0, 0, 1), &query)
			if err != nil {
				if len(buf) != 0 {
					t.Fatalf("%s: reply %x where the oracle has none (%v)", pass, buf, err)
				}
				continue
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("%s reply differs from the oracle\n got %x\nwant %x", pass, buf, want)
			}
			resp, err := dnswire.Unmarshal(buf)
			if err != nil {
				t.Fatalf("%s reply does not decode: %v\n%x", pass, err, buf)
			}
			if resp.ID != query.ID || !resp.Response {
				t.Fatalf("%s reply has ID %d (query %d), response bit %v", pass, resp.ID, query.ID, resp.Response)
			}
		}
	})
}
