package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
)

// randomMap generates an artifact no campaign would: n scopes at every
// granularity from /16 to /28 over a small address range (so they nest
// and collide), with evidence drawn to sit on every formatting edge —
// floats at both ends of encoding/json's exponent switch, zero fields
// that omitempty drops, PoP names and provenance strings that need JSON
// escaping or break a TXT string's 255-byte bound.
func randomMap(r *rand.Rand, n int) *ClientMap {
	floats := []float64{
		0, 0.5, 1.0 / 3, 0.8333333333333334, 1e-6, 9.99e-7, 1e-7, 2.5e-9, 5e-324,
		1e20, 1e21, 1.5e300, math.MaxFloat64, -0.25, -3e-10, 123456789.125,
	}
	pops := []string{
		"fra", "ams", "iad", `q"uote`, "<lt>", "a&b", `back\slash`, "zürich", "東京",
		"bad\xffutf8", "line\u2028sep", "para\u2029sep", "tab\there", "nl\nhere", "bell\x07", "del\x7f",
		"", strings.Repeat("long-pop-name-", 6),
	}
	pick := func() float64 { return floats[r.Intn(len(floats))] }

	cm := &ClientMap{Meta: Meta{
		Seed: r.Uint64(), Scale: `sc"ale<&>`, Passes: 9, Source: "diff\u2028 ü \xff\x01",
	}}
	asns := []uint32{0, 1, 64500, 64501, 65000, 4200000000, math.MaxUint32}
	seen := map[netx.Prefix]bool{}
	origins := map[netx.Prefix]uint32{}
	for len(cm.Scopes) < n {
		p := netx.PrefixFrom(netx.AddrFrom4(10, byte(r.Intn(4)), byte(r.Intn(256)), byte(r.Intn(256))), 16+r.Intn(13))
		if seen[p] {
			continue
		}
		seen[p] = true
		e := ScopeEvidence{Scope: p, Hits: r.Intn(3) * r.Intn(1000), Domains: r.Intn(4), Confidence: pick()}
		if r.Intn(4) > 0 {
			e.PassMask = r.Uint64() >> uint(r.Intn(64))
		}
		for i := r.Intn(7); i > 0; i-- {
			e.PoPs = append(e.PoPs, PoPEvidence{PoP: pops[r.Intn(len(pops))], Hits: r.Intn(50)})
		}
		cm.Scopes = append(cm.Scopes, e)
		if r.Intn(3) > 0 {
			origins[netx.PrefixFrom(p.Addr(), 16+r.Intn(3))] = asns[r.Intn(len(asns))]
		}
	}
	sort.Slice(cm.Scopes, func(i, j int) bool { return prefixLess(cm.Scopes[i].Scope, cm.Scopes[j].Scope) })
	for p, asn := range origins {
		cm.Origins = append(cm.Origins, Origin{Prefix: p, ASN: asn})
	}
	sort.Slice(cm.Origins, func(i, j int) bool { return prefixLess(cm.Origins[i].Prefix, cm.Origins[j].Prefix) })
	for _, asn := range asns[:len(asns)-2] {
		cm.ASes = append(cm.ASes, ASEvidence{
			ASN: asn, Active24s: r.Intn(3) * r.Intn(500), Announced24s: r.Intn(3) * r.Intn(900), Confidence: pick(),
		})
	}
	return cm
}

// differentialTargets lists, for every scope of ix, its first address and
// a random one inside it, then addresses around and outside the scopes.
func differentialTargets(r *rand.Rand, ix *Index) []netx.Addr {
	var out []netx.Addr
	for _, e := range ix.scopes {
		span := uint32(1) << (32 - uint(e.Scope.Bits()))
		out = append(out, e.Scope.Addr(), e.Scope.Addr()+netx.Addr(r.Uint32()%span), e.Scope.Addr()+netx.Addr(span))
	}
	return append(out, 0, netx.AddrFrom4(8, 8, 8, 8), netx.AddrFrom4(10, 9, 0, 1), netx.AddrFrom4(255, 255, 255, 255))
}

// TestAppendJSONMatchesEncodingJSON: for every scope and AS of generated
// artifacts, and the summary, the appended body is byte for byte what
// encoding/json makes of the response struct.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		ix := NewIndex(randomMap(r, 300), uint64(seed), fmt.Sprintf("hash<%d>&more-than-twelve", seed))
		paths := []string{"/v1/summary", "/v1/as/7", "/v1/as/", "/v1/as/01", "/v1/as/4294967296", "/v1/ip/1.2.3", "/v1/ip/", "/v2"}
		for _, a := range differentialTargets(r, ix) {
			paths = append(paths, "/v1/ip/"+a.String())
		}
		for _, asn := range ix.asns {
			paths = append(paths, fmt.Sprintf("/v1/as/%d", asn))
		}
		buf := make([]byte, 0, 64)
		for _, path := range paths {
			want, wantCode := oracleHTTP(ix, path)
			got, code := appendAnswer(buf[:0], ix, path)
			if code != wantCode || !bytes.Equal(got, want) {
				t.Fatalf("seed %d %s:\n got %d %s\nwant %d %s", seed, path, code, got, wantCode, want)
			}
		}
	}
}

// TestAppendJSONStringMatchesEncodingJSON covers the string escaper on
// its own over every byte value and the runes it treats specially.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	var all []byte
	for c := 0; c < 256; c++ {
		all = append(all, byte(c), 'x')
	}
	r := rand.New(rand.NewSource(9))
	cases := []string{"", string(all), "\u2027\u2028\u2029\u202a", "é\xc3", "\xe2\x80", "\xf0\x9f\x98\x80 ok"}
	for i := 0; i < 200; i++ {
		b := make([]byte, r.Intn(24))
		r.Read(b)
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		ix := NewIndex(&ClientMap{Meta: Meta{Scale: s}}, 1, "h")
		want, _ := oracleHTTP(ix, "/v1/summary")
		if got := appendSummary(nil, ix); !bytes.Equal(got, want) {
			t.Fatalf("%q:\n got %s\nwant %s", s, got, want)
		}
	}
}

// TestAppendDNSMatchesMessageMarshal: over generated artifacts, every
// kind of name and query type, asked cold and then again from the cache,
// the appended reply is byte for byte the oracle Message's Marshal — and
// where that Message cannot be marshalled there is no reply.
func TestAppendDNSMatchesMessageMarshal(t *testing.T) {
	types := []dnswire.Type{dnswire.TypeA, dnswire.TypeTXT, dnswire.TypeSOA, dnswire.TypeAAAA, dnswire.TypeNS, 255}
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		store := NewStore()
		ix := store.Swap(randomMap(r, 300), fmt.Sprintf("hash-%d-more-than-twelve", seed))
		h := newTestDNSHandler(store)

		names := []string{
			"clientmap", "CLIENTMAP.", "ns.clientmap", "ops.clientmap", "x.ns.clientmap", "y.x.ops.clientmap",
			"as.clientmap", "x.as.clientmap", "01.as.clientmap", "7.as.clientmap", "1.2.3.clientmap",
			"1.2.3.4.5.clientmap", "a..clientmap", strings.Repeat("a", 64) + ".clientmap",
			strings.Repeat("abcdefgh.", 30) + "clientmap", "example.com", "notclientmap", "",
		}
		for _, a := range differentialTargets(r, ix) {
			names = append(names, FormatReverseName(a, DefaultZone))
		}
		for _, asn := range ix.asns {
			names = append(names, FormatASName(asn, DefaultZone))
		}
		var queries []*dnswire.Message
		for i, name := range names {
			for _, qt := range types {
				queries = append(queries, dnswire.NewQuery(uint16(i), name, qt))
			}
		}
		ecs := dnswire.NewQuery(77, "17.2.0.10.clientmap", dnswire.TypeA).WithECS(netx.MustParsePrefix("198.51.100.0/24"))
		notQuery := dnswire.NewQuery(78, "17.2.0.10.clientmap", dnswire.TypeA)
		notQuery.Response = true
		twoQuestions := dnswire.NewQuery(79, "17.2.0.10.clientmap", dnswire.TypeA)
		twoQuestions.Questions = append(twoQuestions.Questions, dnswire.Question{Name: "b.clientmap", Type: dnswire.TypeTXT, Class: 3})
		queries = append(queries, ecs, notQuery, twoQuestions, &dnswire.Message{ID: 80},
			dnswire.NewQuery(81, "example.com", dnswire.TypeA).WithECS(netx.MustParsePrefix("10.0.0.0/8")))

		for _, q := range queries {
			want, err := oracleDNS(DefaultZone, 60, ix, q).Marshal()
			for _, pass := range []string{"cold", "cached"} {
				got := h.AppendDNS(nil, 0, q)
				if err != nil {
					if len(got) != 0 {
						t.Fatalf("seed %d %s %q/%v: reply %x, but the oracle cannot marshal one (%v)", seed, pass, q.Question().Name, q.Question().Type, got, err)
					}
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d %s %q/%v:\n got %x\nwant %x", seed, pass, q.Question().Name, q.Question().Type, got, want)
				}
			}
		}
		if h.met.dnsCacheHits.Value() == 0 {
			t.Fatal("no cache hits recorded — the cached pass was not exercised")
		}
	}
}

// TestAppendDNSKeepsPrefix: the reply goes behind whatever dst already
// holds — the TCP framer's length prefix — with compression pointers
// counted from the message's own start, cold and cached alike.
func TestAppendDNSKeepsPrefix(t *testing.T) {
	h, _ := testDNSHandler(t)
	for _, name := range []string{"17.2.0.192.clientmap", "1.1.168.192.clientmap"} {
		q := dnswire.NewQuery(5, name, dnswire.TypeTXT)
		want := h.AppendDNS(nil, 0, q)
		for _, pass := range []string{"cached", "cached into a short buffer"} {
			got := h.AppendDNS(make([]byte, 2, 3), 0, q)
			if !bytes.Equal(got[2:], want) || got[0] != 0 || got[1] != 0 {
				t.Fatalf("%s %s: %x, want 0000 then %x", name, pass, got, want)
			}
		}
	}
}
