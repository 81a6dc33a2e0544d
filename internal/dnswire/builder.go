package dnswire

import (
	"encoding/binary"
	"fmt"

	"clientmap/internal/netx"
)

// Builder appends one response to a caller-owned buffer section by
// section, for a server that answers from its own data without building
// a Message first. It writes through the same name-compression table as
// AppendMarshal, so the bytes equal what AppendMarshal gives for a
// Message holding the same records in the same order. All records are
// class IN.
//
// Use: Begin, Question, the records in wire order (answers, then
// authority, then additional), Finish. After any method returns an error
// the buffer holds a partial record and the message must be dropped. A
// Builder is reusable and, held in a local variable, stays on the stack.
type Builder struct {
	b      builder
	counts [4]uint16 // questions, then one per Section
}

// Section names the record section an RR method appends to.
type Section uint8

// The three record sections, in wire order.
const (
	SectionAnswer Section = 1 + iota
	SectionAuthority
	SectionAdditional
)

// Header is the fixed part of a response as Finish writes it: the
// response bit set, opcode 0 (standard query), and of the remaining flags
// only the two a zone server decides.
type Header struct {
	ID            uint16
	Authoritative bool
	RCode         RCode
}

// Begin starts a message at the end of dst.
func (w *Builder) Begin(dst []byte) {
	w.b.base = len(dst)
	w.b.buf = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	w.b.noffs = 0
	w.b.overflow = nil
	w.counts = [4]uint16{}
}

// Bytes returns the buffer as built so far: dst, the header bytes Finish
// will fill in, and everything appended since.
func (w *Builder) Bytes() []byte { return w.b.buf }

// Question appends a question. An unencodable name appends nothing.
func (w *Builder) Question(name string, t Type, c Class) error {
	if err := w.b.name(name); err != nil {
		return err
	}
	w.b.u16(uint16(t))
	w.b.u16(uint16(c))
	w.counts[0]++
	return nil
}

// rrHeader appends an RR up to its RDLENGTH placeholder and returns the
// placeholder's offset for patchLen.
func (w *Builder) rrHeader(sec Section, name string, t Type, ttl uint32) (int, error) {
	if err := w.b.name(name); err != nil {
		return 0, err
	}
	w.b.u16(uint16(t))
	w.b.u16(uint16(ClassINET))
	w.b.u32(ttl)
	lenOff := len(w.b.buf)
	w.b.u16(0)
	w.counts[sec]++
	return lenOff, nil
}

// A appends an address record.
func (w *Builder) A(sec Section, name string, ttl uint32, addr netx.Addr) error {
	lenOff, err := w.rrHeader(sec, name, TypeA, ttl)
	if err != nil {
		return err
	}
	w.b.u32(uint32(addr))
	w.b.patchLen(lenOff)
	return nil
}

// TXT appends a text record holding text as its one character-string.
func (w *Builder) TXT(sec Section, name string, ttl uint32, text []byte) error {
	if len(text) > 255 {
		return fmt.Errorf("dnswire: TXT string too long (%d bytes)", len(text))
	}
	lenOff, err := w.rrHeader(sec, name, TypeTXT, ttl)
	if err != nil {
		return err
	}
	w.b.u8(uint8(len(text)))
	w.b.buf = append(w.b.buf, text...)
	w.b.patchLen(lenOff)
	return nil
}

// SOA appends a start-of-authority record.
func (w *Builder) SOA(sec Section, name string, ttl uint32, soa SOA) error {
	lenOff, err := w.rrHeader(sec, name, TypeSOA, ttl)
	if err != nil {
		return err
	}
	if err := w.b.name(soa.MName); err != nil {
		return err
	}
	if err := w.b.name(soa.RName); err != nil {
		return err
	}
	w.b.u32(soa.Serial)
	w.b.u32(soa.Refresh)
	w.b.u32(soa.Retry)
	w.b.u32(soa.Expire)
	w.b.u32(soa.Minimum)
	w.b.patchLen(lenOff)
	return nil
}

// Finish fills in the header and returns the buffer, dst included.
func (w *Builder) Finish(h Header) []byte {
	hdr := w.b.buf[w.b.base:]
	flags := uint16(1<<15) | uint16(h.RCode&0xF)
	if h.Authoritative {
		flags |= 1 << 10
	}
	binary.BigEndian.PutUint16(hdr, h.ID)
	binary.BigEndian.PutUint16(hdr[2:], flags)
	for i, n := range w.counts {
		binary.BigEndian.PutUint16(hdr[4+2*i:], n)
	}
	return w.b.buf
}
