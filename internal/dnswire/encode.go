package dnswire

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// nameOffset records where a (suffix of a) domain name was first written,
// for compression pointers. A small slice searched linearly replaces the
// map the encoder used to allocate per message: wire messages in this
// module carry a handful of names, so the linear scan is faster than
// hashing and costs nothing to set up.
type nameOffset struct {
	name string
	off  int
}

// builder accumulates a wire-format message and tracks name offsets for
// compression. It lives on the caller's stack — the offsets table is a
// fixed array inside the struct rather than a slice, because a slice that
// append might regrow marks the builder's contents as escaping and drags
// the whole table to the heap. Messages with more than 16 distinct name
// suffixes (none in this module's traffic) spill into the overflow slice,
// trading one allocation for byte-identical compression.
type builder struct {
	buf []byte
	// base is the message's start within buf: compression pointers are
	// offsets from the DNS header, not from the buffer start, and the TCP
	// framer marshals behind a two-byte length prefix.
	base     int
	offs     [16]nameOffset
	noffs    int
	overflow []nameOffset
}

func (b *builder) u8(v uint8)   { b.buf = append(b.buf, v) }
func (b *builder) u16(v uint16) { b.buf = binary.BigEndian.AppendUint16(b.buf, v) }
func (b *builder) u32(v uint32) { b.buf = binary.BigEndian.AppendUint32(b.buf, v) }

func (b *builder) findOffset(n string) (int, bool) {
	for i := 0; i < b.noffs; i++ {
		if b.offs[i].name == n {
			return b.offs[i].off, true
		}
	}
	for i := range b.overflow {
		if b.overflow[i].name == n {
			return b.overflow[i].off, true
		}
	}
	return 0, false
}

func (b *builder) storeOffset(n string, off int) {
	if b.noffs < len(b.offs) {
		b.offs[b.noffs] = nameOffset{name: n, off: off}
		b.noffs++
		return
	}
	b.overflow = append(b.overflow, nameOffset{name: n, off: off})
}

// checkName validates that n (already canonical) is encodable: non-empty
// labels of at most 63 bytes and a total encoded length within 255 bytes.
// The root name "" is valid. It does not split the string; TestValidateName
// checks its verdicts against a splitting reference.
func checkName(n string) error {
	if n == "" {
		return nil
	}
	if len(n) > 253 {
		return fmt.Errorf("%w: %q too long", errName, n)
	}
	start := 0
	for i := 0; i <= len(n); i++ {
		if i == len(n) || n[i] == '.' {
			if i == start {
				return fmt.Errorf("%w: empty label in %q", errName, n)
			}
			if i-start > 63 {
				return fmt.Errorf("%w: label too long in %q", errName, n)
			}
			start = i + 1
		}
	}
	return nil
}

// name appends a (possibly compressed) domain name.
func (b *builder) name(n string) error {
	n = CanonicalName(n)
	if err := checkName(n); err != nil {
		return err
	}
	for n != "" {
		if off, ok := b.findOffset(n); ok {
			b.u16(0xC000 | uint16(off))
			return nil
		}
		if off := len(b.buf) - b.base; off < 0x3FFF {
			b.storeOffset(n, off)
		}
		label := n
		if dot := strings.IndexByte(n, '.'); dot >= 0 {
			label, n = n[:dot], n[dot+1:]
		} else {
			n = ""
		}
		b.u8(uint8(len(label)))
		b.buf = append(b.buf, label...)
	}
	b.u8(0)
	return nil
}

// patchLen patches the two bytes at off with the RDATA length that
// follows them.
func (b *builder) patchLen(off int) {
	binary.BigEndian.PutUint16(b.buf[off:], uint16(len(b.buf)-off-2))
}

func (b *builder) rr(rr RR) error {
	if rr.Data == nil {
		return fmt.Errorf("dnswire: RR %q has nil data", rr.Name)
	}
	if err := b.name(rr.Name); err != nil {
		return err
	}
	b.u16(uint16(rr.Data.Type()))
	b.u16(uint16(rr.Class))
	b.u32(rr.TTL)
	lenOff := len(b.buf)
	b.u16(0) // RDLENGTH placeholder
	switch d := rr.Data.(type) {
	case A:
		b.u32(uint32(d.Addr))
	case TXT:
		for _, s := range d.Strings {
			if len(s) > 255 {
				return fmt.Errorf("dnswire: TXT string too long (%d bytes)", len(s))
			}
			b.u8(uint8(len(s)))
			b.buf = append(b.buf, s...)
		}
	case CNAME:
		if err := b.name(d.Target); err != nil {
			return err
		}
	case NS:
		if err := b.name(d.Host); err != nil {
			return err
		}
	case SOA:
		if err := b.name(d.MName); err != nil {
			return err
		}
		if err := b.name(d.RName); err != nil {
			return err
		}
		b.u32(d.Serial)
		b.u32(d.Refresh)
		b.u32(d.Retry)
		b.u32(d.Expire)
		b.u32(d.Minimum)
	case Raw:
		b.buf = append(b.buf, d.Data...)
	default:
		return fmt.Errorf("dnswire: cannot encode RR type %T", rr.Data)
	}
	b.patchLen(lenOff)
	return nil
}

// opt appends the OPT pseudo-RR carrying the message's EDNS state.
func (b *builder) opt(e *EDNS) {
	b.u8(0) // root name
	b.u16(uint16(TypeOPT))
	udp := e.UDPSize
	if udp == 0 {
		udp = 512
	}
	b.u16(udp) // CLASS = requestor's UDP payload size
	b.u32(0)   // extended RCODE and flags
	lenOff := len(b.buf)
	b.u16(0)
	if e.ECS != nil {
		b.u16(8) // OPTION-CODE: edns-client-subnet
		addrBytes := int(e.ECS.SourcePrefixLen+7) / 8
		b.u16(uint16(4 + addrBytes))
		b.u16(1) // FAMILY: IPv4
		b.u8(e.ECS.SourcePrefixLen)
		b.u8(e.ECS.ScopePrefixLen)
		// Address truncated to the significant octets, host bits zeroed
		// per RFC 7871 §6.
		masked := e.ECS.SourcePrefix().Addr()
		for i := 0; i < addrBytes; i++ {
			b.u8(uint8(uint32(masked) >> (24 - 8*i)))
		}
	}
	b.patchLen(lenOff)
}

// AppendMarshal encodes m into wire format appended to dst and returns the
// extended buffer. Encoding into a buffer with sufficient capacity does not
// allocate, which is what lets the transports frame millions of messages
// through pooled buffers.
func (m *Message) AppendMarshal(dst []byte) ([]byte, error) {
	var b builder
	b.buf = dst
	b.base = len(dst)
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Opcode&0xF) << 11
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.Truncated {
		flags |= 1 << 9
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.RCode & 0xF)

	b.u16(m.ID)
	b.u16(flags)
	b.u16(uint16(len(m.Questions)))
	b.u16(uint16(len(m.Answers)))
	b.u16(uint16(len(m.Authority)))
	extra := len(m.Additional)
	if m.EDNS != nil {
		extra++
	}
	b.u16(uint16(extra))

	for _, q := range m.Questions {
		if err := b.name(q.Name); err != nil {
			return nil, err
		}
		b.u16(uint16(q.Type))
		b.u16(uint16(q.Class))
	}
	for _, rr := range m.Answers {
		if err := b.rr(rr); err != nil {
			return nil, err
		}
	}
	for _, rr := range m.Authority {
		if err := b.rr(rr); err != nil {
			return nil, err
		}
	}
	for _, rr := range m.Additional {
		if err := b.rr(rr); err != nil {
			return nil, err
		}
	}
	if m.EDNS != nil {
		b.opt(m.EDNS)
	}
	return b.buf, nil
}

// Marshal encodes m into wire format.
func (m *Message) Marshal() ([]byte, error) {
	return m.AppendMarshal(make([]byte, 0, 512))
}
