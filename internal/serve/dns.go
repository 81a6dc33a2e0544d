package serve

import (
	"context"
	"encoding/binary"
	"math/bits"
	"strconv"
	"strings"

	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
)

// DefaultZone is the DNS zone the daemon answers for, RBL-style: the /24
// of IP a.b.c.d is queried as "d.c.b.a.clientmap." and an AS as
// "<asn>.as.clientmap.".
const DefaultZone = "clientmap"

// ActiveA is the answer address for listed (active) names, following the
// DNSBL convention of answering inside 127.0.0.0/8.
var ActiveA = netx.AddrFrom4(127, 0, 0, 2)

// DNSHandler answers clientmap queries over the dnsnet listeners, which
// call its append form; ServeDNS is the same path for in-process callers.
// It is constructed by the Daemon but usable standalone (the race and
// golden tests drive it directly).
type DNSHandler struct {
	store  *Store
	cache  *Cache[[]byte] // reply wire with ID 0, keyed by the reply's question section
	limits *Limiter
	zone   string // canonical, no trailing dot
	ttl    uint32
	met    *serveMetrics

	mname, rname string // the SOA's server and mailbox names under zone
}

// The response cache's shape: 65 536 replies.
const (
	dnsCacheShards   = 16
	dnsCacheCapacity = 4096
)

func newDNSHandler(store *Store, limits *Limiter, zone string, ttl uint32, met *serveMetrics) *DNSHandler {
	return &DNSHandler{
		store:  store,
		cache:  NewCache[[]byte](dnsCacheShards, dnsCacheCapacity),
		limits: limits,
		zone:   zone,
		ttl:    ttl,
		met:    met,
		mname:  "ns." + zone,
		rname:  "ops." + zone,
	}
}

// ParseReverseName extracts the IPv4 address from an RBL-style reversed
// name relative to zone (canonical form, e.g. "2.0.0.192.clientmap" with
// zone "clientmap"). The name must be exactly four octet labels followed
// by the zone; each label is 1-3 decimal digits, value ≤ 255, with no
// leading zeros ("0" itself is fine) — the strictness keeps the mapping
// bijective, so every valid name round-trips through FormatReverseName.
func ParseReverseName(name, zone string) (netx.Addr, bool) {
	rest, ok := strings.CutSuffix(name, "."+zone)
	if !ok {
		return 0, false
	}
	var octets [4]byte
	for i := 3; i >= 0; i-- {
		var label string
		if i > 0 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, false
			}
			label, rest = rest[:dot], rest[dot+1:]
		} else {
			label = rest
		}
		v, ok := parseOctet(label)
		if !ok {
			return 0, false
		}
		// The first label parsed is the host octet d; walking i from 3
		// down to 0 stores d.c.b.a back into a.b.c.d order.
		octets[i] = v
	}
	return netx.AddrFrom4(octets[0], octets[1], octets[2], octets[3]), true
}

// parseOctet accepts exactly the canonical decimal form of 0-255.
func parseOctet(s string) (byte, bool) {
	if len(s) == 0 || len(s) > 3 {
		return 0, false
	}
	if len(s) > 1 && s[0] == '0' {
		return 0, false // leading zeros break bijectivity
	}
	v := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	if v > 255 {
		return 0, false
	}
	return byte(v), true
}

// FormatReverseName renders the query name for a's /24-or-host activity
// lookup: octets reversed, zone appended, no trailing dot.
func FormatReverseName(a netx.Addr, zone string) string {
	b0, b1, b2, b3 := a.Octets()
	var buf [32]byte
	b := strconv.AppendUint(buf[:0], uint64(b3), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(b2), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(b1), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(b0), 10)
	b = append(b, '.')
	b = append(b, zone...)
	return string(b)
}

// ParseASName extracts the ASN from "<asn>.as.<zone>" (canonical form,
// no leading zeros, 32-bit range).
func ParseASName(name, zone string) (uint32, bool) {
	rest, ok := strings.CutSuffix(name, ".as."+zone)
	if !ok {
		return 0, false
	}
	if len(rest) == 0 || len(rest) > 10 || (len(rest) > 1 && rest[0] == '0') {
		return 0, false
	}
	v := uint64(0)
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	if v > 1<<32-1 {
		return 0, false
	}
	return uint32(v), true
}

// ServeDNS implements dnsnet.Handler for in-process callers (tests, the
// golden corpus, the benchmark's ladder): it is AppendDNS's reply,
// decoded.
func (h *DNSHandler) ServeDNS(_ context.Context, from netx.Addr, query *dnswire.Message) *dnswire.Message {
	wire := h.AppendDNS(make([]byte, 0, 512), from, query)
	if len(wire) == 0 {
		return nil
	}
	resp, err := dnswire.Unmarshal(wire)
	if err != nil {
		return nil
	}
	return resp
}

// AppendDNS implements dnsnet.Appender. Replies are deterministic for a
// given (index generation, question): a cache hit is the stored wire
// copied out and a miss is built straight from the index into dst and
// stored, each then stamped with the query's ID, so hot and cold replies
// are the same bytes. Nothing is allocated on a hit, and nothing but the
// cache's own copy on a miss.
func (h *DNSHandler) AppendDNS(dst []byte, from netx.Addr, query *dnswire.Message) []byte {
	if query.Response || query.Opcode != 0 || len(query.Questions) == 0 {
		return refuse(dst, query, dnswire.RCodeNotImp)
	}
	h.met.dnsQueries.Inc()
	if h.limits != nil && !h.limits.Allow(from) {
		h.met.dnsRateLimited.Inc()
		return refuse(dst, query, dnswire.RCodeRefused)
	}
	q := query.Questions[0]
	name := dnswire.CanonicalName(q.Name)
	if name != h.zone && !strings.HasSuffix(name, "."+h.zone) {
		return refuse(dst, query, dnswire.RCodeRefused)
	}
	ix := h.store.Current()
	if ix == nil {
		return refuse(dst, query, dnswire.RCodeServFail)
	}

	// The reply's question section is written first and doubles as the
	// cache key. A name the wire format cannot carry gets no reply.
	base := len(dst)
	var w dnswire.Builder
	w.Begin(dst)
	if w.Question(name, q.Type, dnswire.ClassINET) != nil {
		return dst
	}
	key := w.Bytes()[base+12:]
	out, hit := h.cache.appendTo(w.Bytes()[:base], ix.Generation, key)
	if hit {
		h.met.dnsCacheHits.Inc()
	} else {
		rcode, err := h.answer(&w, ix, name, q.Type)
		if err != nil {
			return dst
		}
		out = w.Finish(dnswire.Header{Authoritative: true, RCode: rcode})
		h.cache.put(ix.Generation, key, out[base:])
	}
	binary.BigEndian.PutUint16(out[base:], query.ID)
	return out
}

// refuse appends a minimal non-answer with the given rcode.
func refuse(dst []byte, query *dnswire.Message, rc dnswire.RCode) []byte {
	r := query.Reply()
	r.RCode = rc
	out, err := r.AppendMarshal(dst)
	if err != nil {
		return dst
	}
	return out
}

// answer appends the records answering a canonical in-zone name and
// returns the reply's rcode. Everything it writes is a pure function of
// the one index it is handed, so a reply never blends two generations
// and is safely shared by every query of its generation.
func (h *DNSHandler) answer(w *dnswire.Builder, ix *Index, name string, qtype dnswire.Type) (dnswire.RCode, error) {
	if name == h.zone {
		sec := dnswire.SectionAuthority
		if qtype == dnswire.TypeSOA {
			sec = dnswire.SectionAnswer
		}
		return dnswire.RCodeSuccess, h.soa(w, sec, ix)
	}
	var (
		listed bool
		res    Result
		as     ASEvidence
	)
	asn, isAS := ParseASName(name, h.zone)
	if isAS {
		as, listed = ix.LookupAS(asn)
	} else if addr, ok := ParseReverseName(name, h.zone); ok {
		res = ix.LookupAddr(addr)
		listed = res.Active
	}
	// A listed (active) name answers with the DNSBL A record for A
	// queries, the evidence TXT for TXT queries and NODATA (empty answer,
	// SOA authority) for other types; an unlisted one does not exist.
	switch {
	case !listed:
		return dnswire.RCodeNXDomain, h.soa(w, dnswire.SectionAuthority, ix)
	case qtype == dnswire.TypeA:
		return dnswire.RCodeSuccess, w.A(dnswire.SectionAnswer, name, h.ttl, ActiveA)
	case qtype == dnswire.TypeTXT:
		txt := make([]byte, 0, 255)
		if isAS {
			txt = appendASTXT(txt, ix, as)
		} else {
			txt = appendResultTXT(txt, ix, res)
		}
		return dnswire.RCodeSuccess, w.TXT(dnswire.SectionAnswer, name, h.ttl, txt)
	default:
		return dnswire.RCodeSuccess, h.soa(w, dnswire.SectionAuthority, ix)
	}
}

// soa appends the zone's start-of-authority record; the serial is the
// generation of the index the reply is built from, so secondaries (and
// tests) can observe reloads.
func (h *DNSHandler) soa(w *dnswire.Builder, sec dnswire.Section, ix *Index) error {
	return w.SOA(sec, h.zone, h.ttl, dnswire.SOA{
		MName: h.mname, RName: h.rname,
		Serial: uint32(ix.Generation), Refresh: 3600, Retry: 600, Expire: 86400, Minimum: h.ttl,
	})
}

// appendResultTXT renders the evidence string for an active /24, bounded
// to one 255-byte TXT character-string (the PoP list is truncated, never
// the claim itself).
func appendResultTXT(b []byte, ix *Index, res Result) []byte {
	e := res.Evidence
	b = append(b, "active=1 scope="...)
	b = res.Scope.AppendTo(b)
	b = append(b, " conf="...)
	b = strconv.AppendFloat(b, e.Confidence, 'f', 4, 64)
	b = append(b, " passes="...)
	b = strconv.AppendInt(b, int64(bits.OnesCount64(e.PassMask)), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(ix.Meta.Passes), 10)
	b = append(b, " hits="...)
	b = strconv.AppendInt(b, int64(e.Hits), 10)
	if res.HasASN {
		b = append(b, " asn="...)
		b = strconv.AppendUint(b, uint64(res.ASN), 10)
	}
	if len(e.PoPs) > 0 {
		b = append(b, " pops="...)
		for i, p := range e.PoPs {
			if i == maxTXTPoPs {
				b = append(b, ";+"...)
				b = strconv.AppendInt(b, int64(len(e.PoPs)-maxTXTPoPs), 10)
				break
			}
			if i > 0 {
				b = append(b, ';')
			}
			b = append(b, p.PoP...)
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(p.Hits), 10)
		}
	}
	return appendGen(b, ix)
}

// appendASTXT renders the evidence string for an active AS.
func appendASTXT(b []byte, ix *Index, a ASEvidence) []byte {
	b = append(b, "active=1 asn="...)
	b = strconv.AppendUint(b, uint64(a.ASN), 10)
	b = append(b, " active24="...)
	b = strconv.AppendInt(b, int64(a.Active24s), 10)
	b = append(b, " announced24="...)
	b = strconv.AppendInt(b, int64(a.Announced24s), 10)
	b = append(b, " conf="...)
	b = strconv.AppendFloat(b, a.Confidence, 'f', 4, 64)
	return appendGen(b, ix)
}

// maxTXTPoPs bounds the PoP list so the TXT string stays within one
// 255-byte character-string.
const maxTXTPoPs = 4

func appendGen(b []byte, ix *Index) []byte {
	b = append(b, " gen="...)
	b = strconv.AppendUint(b, ix.Generation, 10)
	b = append(b, " artifact="...)
	return append(b, shortHash(ix.Hash)...)
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
