// Package authdns implements the authoritative DNS side of the model: the
// name servers for the popular domains the campaign probes (and any other
// catalog domain). The behaviour that matters to the methodology is the
// EDNS0 Client Subnet response *scope*: authoritatives often answer a /24
// query with a less specific scope (e.g. Wikipedia answers /16-/18), which
// both enables the paper's probe-reduction trick (§3.1.1, validated in
// appendix A.2) and defines the granularity of every cache-probing result.
package authdns

import (
	"context"
	"strconv"

	"clientmap/internal/dnsnet"
	"clientmap/internal/dnswire"
	"clientmap/internal/domains"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
)

// Server is an authoritative DNS server for a set of catalog domains. It
// implements dnsnet.Handler and can be mounted on in-memory or socket
// transports.
type Server struct {
	seed  randx.Seed
	zones map[string]domains.Domain
	addrs map[string]netx.Addr
	// aboxes holds each domain's A answer pre-boxed as an RData, so the
	// per-query answer append does not re-box the interface value.
	aboxes map[string]dnswire.RData
}

// New builds an authoritative server for the given domains. Each domain
// gets a synthetic stable A record.
func New(seed randx.Seed, catalog []domains.Domain) *Server {
	s := &Server{
		seed:   seed,
		zones:  make(map[string]domains.Domain, len(catalog)),
		addrs:  make(map[string]netx.Addr, len(catalog)),
		aboxes: make(map[string]dnswire.RData, len(catalog)),
	}
	for i, d := range catalog {
		name := dnswire.CanonicalName(d.Name)
		s.zones[name] = d
		// Service addresses live in a reserved block far from the world
		// allocator's space.
		addr := netx.AddrFrom4(198, 18, byte(i/250), byte(1+i%250))
		s.addrs[name] = addr
		s.aboxes[name] = dnswire.A{Addr: addr}
	}
	return s
}

// NaturalScope returns the stable response scope the authoritative assigns
// for d's queries about src's address region, without flip noise. The
// scope is a function of the domain and the containing MinBits-block, so
// nearby /24s receive consistent scopes — the property the
// probe-reduction pre-scan relies on.
func NaturalScope(seed randx.Seed, d domains.Domain, src netx.Prefix) netx.Prefix {
	band := d.Scope.MaxBits - d.Scope.MinBits + 1
	block := netx.PrefixFrom(src.Addr(), d.Scope.MinBits)
	// Byte-built key, identical to the former
	// fmt.Sprintf("authdns/scope/%s/%s", d.Name, block) — this function
	// runs once per probe on the lazy-fill path, so the formatting
	// allocation was hot.
	var kb [80]byte
	key := append(kb[:0], "authdns/scope/"...)
	key = append(key, d.Name...)
	key = append(key, '/')
	key = block.AppendTo(key)
	h := seed.Hash64B(key)
	bits := d.Scope.MinBits + int(h%uint64(band))
	if bits > src.Bits() {
		// Never answer more specifically than the /24-or-coarser question:
		// real authoritatives cap scope at the query's source length.
		bits = src.Bits()
	}
	return netx.PrefixFrom(src.Addr(), bits)
}

// flippedScope applies per-query scope instability around the natural
// scope, bounded to the policy band (appendix A.2: 90% of response scopes
// match the query exactly, 97% within 2, 99% within 4).
//
// The flip is a pure hash of (domain, source prefix, transaction id), not
// a draw from a shared RNG stream: a shared stream hands out flips in
// arrival order, which would make response scopes depend on how a
// concurrent pre-scan interleaves its queries. With the hash, a given
// query always receives the same answer no matter when or from which
// worker it arrives, and distinct transaction ids (which real stubs vary
// per query) still sample the flip distribution.
func (s *Server) flippedScope(d domains.Domain, natural, src netx.Prefix, qid uint16) netx.Prefix {
	// Variable fields (qid, src) lead the key: FNV-1a mixes early bytes
	// through every later round, so the constant suffix gives the short
	// numeric differences full avalanche into HashUnit's high bits.
	// Byte-built, identical to the former
	// fmt.Sprintf("authdns/flip/%d/%s/%s", qid, src, d.Name); suffix draws
	// truncate back to the base key.
	var kb [112]byte
	key := append(kb[:0], "authdns/flip/"...)
	key = strconv.AppendUint(key, uint64(qid), 10)
	key = append(key, '/')
	key = src.AppendTo(key)
	key = append(key, '/')
	key = append(key, d.Name...)
	base := len(key)
	if s.seed.HashUnitB(key) >= d.Scope.FlipProb {
		return natural
	}
	// Mostly ±1..2, occasionally further.
	r := s.seed.HashUnitB(append(key[:base], "/mag"...))
	var delta int
	switch {
	case r < 0.5:
		delta = 1
	case r < 0.8:
		delta = 2
	case r < 0.93:
		delta = 3 + int(s.seed.Hash64B(append(key[:base], "/m2"...))%2)
	default:
		delta = 5 + int(s.seed.Hash64B(append(key[:base], "/m3"...))%4)
	}
	if s.seed.HashUnitB(append(key[:base], "/sign"...)) < 0.5 {
		delta = -delta
	}
	bits := natural.Bits() + delta
	if bits < d.Scope.MinBits-4 {
		bits = d.Scope.MinBits - 4
	}
	// Authoritatives effectively never answer coarser than /16: flips
	// below it would let one cache entry cover whole allocation regions.
	if bits < 16 {
		bits = 16
	}
	if bits > 24 {
		bits = 24
	}
	return netx.PrefixFrom(natural.Addr(), bits)
}

// ServeDNS implements dnsnet.Handler. Responses are pooled messages; the
// consumer (the recursive's miss path, the pre-scan) releases them.
func (s *Server) ServeDNS(_ context.Context, _ netx.Addr, q *dnswire.Message) *dnswire.Message {
	r := q.ReplyInto(dnswire.AcquireMessage())
	r.Authoritative = true
	qq := q.Question()
	d, ok := s.zones[qq.Name]
	if !ok {
		r.RCode = dnswire.RCodeNXDomain
		return r
	}
	if qq.Type != dnswire.TypeA {
		// NOERROR/NODATA for types we do not serve.
		return r
	}

	var ecs *dnswire.ECS
	if q.EDNS != nil {
		ecs = q.EDNS.ECS
	}
	r.Answers = append(r.Answers, dnswire.RR{
		Name:  qq.Name,
		Class: dnswire.ClassINET,
		TTL:   uint32(d.TTL.Seconds()),
		Data:  s.aboxes[qq.Name],
	})

	if ecs != nil && r.EDNS != nil && r.EDNS.ECS != nil {
		if d.SupportsECS {
			natural := NaturalScope(s.seed, d, ecs.SourcePrefix())
			scope := s.flippedScope(d, natural, ecs.SourcePrefix(), q.ID)
			r.EDNS.ECS.ScopePrefixLen = uint8(scope.Bits())
		} else {
			r.EDNS.ECS.ScopePrefixLen = 0
		}
	}
	return r
}

var _ dnsnet.Handler = (*Server)(nil)
