// Package dnswire implements the DNS wire format used by every DNS-speaking
// component in this module: the authoritative servers, the Google Public
// DNS simulator, the cache-probing client and the root-server trace
// pipeline.
//
// It covers the subset of RFC 1035 the measurement system needs — queries
// and responses with A/NS/CNAME/SOA/TXT records, name compression — plus
// EDNS0 (RFC 6891) with the Client Subnet option (RFC 7871) that the
// cache-probing technique is built on, and the two-byte length framing of
// DNS over TCP.
package dnswire

import (
	"errors"
	"fmt"
	"strings"

	"clientmap/internal/netx"
)

// Type is a DNS RR type.
type Type uint16

// RR types used by the module.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeOPT   Type = 41
)

// String returns the conventional mnemonic for t.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeOPT:
		return "OPT"
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// Class is a DNS class; only IN is used.
type Class uint16

// ClassINET is the Internet class.
const ClassINET Class = 1

// RCode is a DNS response code.
type RCode uint8

// Response codes used by the module.
const (
	RCodeSuccess  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// String returns the conventional mnemonic for rc.
func (rc RCode) String() string {
	switch rc {
	case RCodeSuccess:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	}
	return fmt.Sprintf("RCODE%d", uint8(rc))
}

// Question is one entry of a message's question section.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// RData is the type-specific payload of a resource record.
type RData interface {
	// Type returns the RR type this data belongs to.
	Type() Type
}

// A is an IPv4 address record.
type A struct {
	Addr netx.Addr
}

// Type implements RData.
func (A) Type() Type { return TypeA }

// TXT is a text record; each element is one character-string.
type TXT struct {
	Strings []string
}

// Type implements RData.
func (TXT) Type() Type { return TypeTXT }

// CNAME is a canonical-name record.
type CNAME struct {
	Target string
}

// Type implements RData.
func (CNAME) Type() Type { return TypeCNAME }

// NS is a name-server record.
type NS struct {
	Host string
}

// Type implements RData.
func (NS) Type() Type { return TypeNS }

// SOA is a start-of-authority record.
type SOA struct {
	MName, RName                            string
	Serial, Refresh, Retry, Expire, Minimum uint32
}

// Type implements RData.
func (SOA) Type() Type { return TypeSOA }

// Raw carries RDATA of a type this package does not interpret.
type Raw struct {
	RRType Type
	Data   []byte
}

// Type implements RData.
func (r Raw) Type() Type { return r.RRType }

// RR is a resource record.
type RR struct {
	Name  string
	Class Class
	TTL   uint32
	Data  RData
}

// ECS is the EDNS0 Client Subnet option (RFC 7871), IPv4 only: the paper's
// techniques do not yet consider IPv6 (§2).
type ECS struct {
	// SourcePrefixLen is the prefix length the querier is asking about.
	SourcePrefixLen uint8
	// ScopePrefixLen is the prefix length the answer is valid for; zero in
	// queries, and zero in responses when the cached entry covers the whole
	// address space.
	ScopePrefixLen uint8
	// Addr is the client subnet address; bits beyond SourcePrefixLen must
	// be zero on the wire.
	Addr netx.Addr
}

// SourcePrefix returns the ECS source as a netx.Prefix.
func (e ECS) SourcePrefix() netx.Prefix {
	return netx.PrefixFrom(e.Addr, int(e.SourcePrefixLen))
}

// EDNS is the OPT pseudo-record state of a message.
type EDNS struct {
	// UDPSize is the requestor's advertised maximum UDP payload.
	UDPSize uint16
	// ECS is the client-subnet option, if present.
	ECS *ECS
	// ecsBuf is the inline storage ECS points at on the pooled/reused
	// paths (WithECS, ReplyInto, UnmarshalInto), so attaching an option
	// does not allocate. ECS staying a pointer keeps "option absent"
	// expressible as nil.
	ecsBuf ECS
}

// Message is a DNS message.
type Message struct {
	ID                 uint16
	Response           bool
	Opcode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode

	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR

	// EDNS, when non-nil, is rendered as an OPT RR at the end of the
	// additional section on marshal and parsed out of it on unmarshal.
	EDNS *EDNS
	// ednsBuf is the inline storage EDNS points at on the pooled/reused
	// paths, mirroring EDNS.ecsBuf. Copying a Message by value leaves the
	// copy's EDNS pointing into the original's buffer — fine for the
	// read-only copies the module makes (hedged queries, forced
	// truncation), but a copied message must not be mutated through
	// WithECS and released independently.
	ednsBuf EDNS
}

// Question returns the first question of m, or a zero Question.
func (m *Message) Question() Question {
	if len(m.Questions) == 0 {
		return Question{}
	}
	return m.Questions[0]
}

// NewQuery builds a query for (name, type) with the given ID. Recursion
// desired is set; callers probing caches clear it explicitly.
func NewQuery(id uint16, name string, t Type) *Message {
	return new(Message).SetQuery(id, name, t)
}

// SetQuery resets m into the query NewQuery builds, reusing m's slice
// capacity. The probe hot loop holds one scratch message per task batch
// and re-points it at each (id, name, scope) instead of allocating a
// fresh query per probe.
func (m *Message) SetQuery(id uint16, name string, t Type) *Message {
	m.Reset()
	m.ID = id
	m.RecursionDesired = true
	m.Questions = append(m.Questions, Question{Name: CanonicalName(name), Type: t, Class: ClassINET})
	return m
}

// WithECS attaches an ECS option for the given prefix to m's EDNS state and
// returns m for chaining. The option lives in m's inline buffers, so
// repeated calls on a reused message do not allocate.
func (m *Message) WithECS(p netx.Prefix) *Message {
	if m.EDNS == nil {
		m.ednsBuf = EDNS{UDPSize: 4096}
		m.EDNS = &m.ednsBuf
	}
	m.EDNS.ecsBuf = ECS{
		SourcePrefixLen: uint8(p.Bits()),
		Addr:            p.Addr(),
	}
	m.EDNS.ECS = &m.EDNS.ecsBuf
	return m
}

// Reply builds a response skeleton for query q: same ID and question,
// response bit set, recursion flags mirrored.
func (q *Message) Reply() *Message {
	return q.ReplyInto(new(Message))
}

// ReplyInto fills r (typically fresh from AcquireMessage) with the
// response skeleton Reply builds, reusing r's slice capacity and inline
// EDNS/ECS buffers. The question section and any ECS option are copied by
// value, so r shares nothing mutable with q.
func (q *Message) ReplyInto(r *Message) *Message {
	r.Reset()
	r.ID = q.ID
	r.Response = true
	r.Opcode = q.Opcode
	r.RecursionDesired = q.RecursionDesired
	r.Questions = append(r.Questions, q.Questions...)
	if q.EDNS != nil {
		r.ednsBuf = EDNS{UDPSize: 4096}
		r.EDNS = &r.ednsBuf
		if q.EDNS.ECS != nil {
			r.EDNS.ecsBuf = *q.EDNS.ECS
			r.EDNS.ECS = &r.EDNS.ecsBuf
		}
	}
	return r
}

// Reset clears m to the zero message while keeping section slice capacity
// for reuse.
func (m *Message) Reset() {
	m.ID = 0
	m.Response = false
	m.Opcode = 0
	m.Authoritative = false
	m.Truncated = false
	m.RecursionDesired = false
	m.RecursionAvailable = false
	m.RCode = 0
	m.Questions = m.Questions[:0]
	m.Answers = m.Answers[:0]
	m.Authority = m.Authority[:0]
	m.Additional = m.Additional[:0]
	m.EDNS = nil
}

var errName = errors.New("dnswire: invalid name")

// CanonicalName lowercases a domain name and strips a single trailing dot,
// yielding the form used as cache and zone keys throughout the module.
func CanonicalName(name string) string {
	name = strings.ToLower(name)
	name = strings.TrimSuffix(name, ".")
	return name
}

// ValidateName checks that name is encodable: non-empty labels of at most
// 63 bytes and a total encoded length within 255 bytes. The root name ""
// is valid.
func ValidateName(name string) error {
	name = CanonicalName(name)
	if name == "" {
		return nil
	}
	if len(name) > 253 {
		return fmt.Errorf("%w: %q too long", errName, name)
	}
	for _, label := range strings.Split(name, ".") {
		if len(label) == 0 {
			return fmt.Errorf("%w: empty label in %q", errName, name)
		}
		if len(label) > 63 {
			return fmt.Errorf("%w: label too long in %q", errName, name)
		}
	}
	return nil
}
