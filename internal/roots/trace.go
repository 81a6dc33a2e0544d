// Package roots models the DNS root servers as the DNS-logs technique sees
// them: two days of query traces ("DITL", day-in-the-life collections) per
// root letter, containing the Chromium DNS-interception probes that leak to
// the roots along with ordinary junk traffic.
//
// Traces use a compact binary format with varint-delta timestamps. Records
// carry a weight so that high-volume sources can be emitted in sampled form
// (weight > 1) while low-volume sources keep exact, per-event records —
// presence of small resolvers is what the technique's coverage claims rest
// on, so it must never be sampled away.
package roots

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
)

// Letters identifies the 13 root server letters.
var Letters = []string{"A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K", "L", "M"}

// DITLLetters are the roots whose 2020 DITL traces are un-anonymized and
// complete, per the paper (§3.2.1): J, H, M, A, K and D.
var DITLLetters = []string{"J", "H", "M", "A", "K", "D"}

// Record is one query observed at a root server.
type Record struct {
	// Time is when the query arrived.
	Time time.Time
	// Src is the querying address — a recursive resolver, not a client.
	Src netx.Addr
	// QName is the queried name (canonical form).
	QName string
	// QType is the DNS query type.
	QType dnswire.Type
	// Weight is how many real queries this record represents (>= 1);
	// high-volume sources are stored sampled.
	Weight uint32
}

const traceMagic = "DITL1\x00"

// Writer writes a trace stream.
type Writer struct {
	w      *bufio.Writer
	last   int64 // last timestamp, microseconds
	count  int
	opened bool
}

// NewWriter begins a trace for the given root letter on w.
func NewWriter(w io.Writer, letter string) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return nil, err
	}
	if len(letter) != 1 {
		return nil, fmt.Errorf("roots: invalid letter %q", letter)
	}
	if err := bw.WriteByte(letter[0]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, opened: true}, nil
}

// Write appends one record. Records must be written in non-decreasing time
// order.
func (tw *Writer) Write(r Record) error {
	if !tw.opened {
		return errors.New("roots: writer closed")
	}
	us := r.Time.UnixMicro()
	delta := us - tw.last
	if tw.count == 0 {
		delta = us
	}
	if delta < 0 {
		return fmt.Errorf("roots: record out of order (%v before %v)", us, tw.last)
	}
	tw.last = us

	var buf [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(delta))
	if _, err := tw.w.Write(buf[:n]); err != nil {
		return err
	}
	var fixed [6]byte
	binary.BigEndian.PutUint32(fixed[0:], uint32(r.Src))
	binary.BigEndian.PutUint16(fixed[4:], uint16(r.QType))
	if _, err := tw.w.Write(fixed[:]); err != nil {
		return err
	}
	w := r.Weight
	if w == 0 {
		w = 1
	}
	n = binary.PutUvarint(buf[:], uint64(w))
	if _, err := tw.w.Write(buf[:n]); err != nil {
		return err
	}
	if len(r.QName) > 255 {
		return fmt.Errorf("roots: name too long (%d)", len(r.QName))
	}
	if err := tw.w.WriteByte(byte(len(r.QName))); err != nil {
		return err
	}
	if _, err := tw.w.WriteString(r.QName); err != nil {
		return err
	}
	tw.count++
	return nil
}

// Close flushes the trace.
func (tw *Writer) Close() error {
	tw.opened = false
	return tw.w.Flush()
}

// Reader reads a trace stream.
type Reader struct {
	r     *bufio.Reader
	last  int64
	count int
}

// NewReader opens a trace stream and validates its header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(traceMagic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("roots: reading header: %w", err)
	}
	if string(head[:len(traceMagic)]) != traceMagic {
		return nil, errors.New("roots: bad trace magic")
	}
	return &Reader{r: br}, nil
}

// Next returns the next record, or io.EOF at end of trace.
func (tr *Reader) Next() (Record, error) {
	delta, err := binary.ReadUvarint(tr.r)
	if err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("roots: reading delta: %w", err)
	}
	if tr.count == 0 {
		tr.last = int64(delta)
	} else {
		tr.last += int64(delta)
	}
	var fixed [6]byte
	if _, err := io.ReadFull(tr.r, fixed[:]); err != nil {
		return Record{}, fmt.Errorf("roots: reading record: %w", err)
	}
	weight, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return Record{}, fmt.Errorf("roots: reading weight: %w", err)
	}
	nameLen, err := tr.r.ReadByte()
	if err != nil {
		return Record{}, fmt.Errorf("roots: reading name length: %w", err)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(tr.r, name); err != nil {
		return Record{}, fmt.Errorf("roots: reading name: %w", err)
	}
	tr.count++
	return Record{
		Time:   time.UnixMicro(tr.last),
		Src:    netx.Addr(binary.BigEndian.Uint32(fixed[0:])),
		QType:  dnswire.Type(binary.BigEndian.Uint16(fixed[4:])),
		QName:  string(name),
		Weight: uint32(weight),
	}, nil
}
