// Package snapshot is the compact, versioned codec the staged pipeline
// persists its intermediate artifacts with (see internal/pipeline). A
// snapshot file is:
//
//	magic "CMSP" | format version (uvarint) | kind (string)
//	| artifact version (uvarint) | fingerprint (string)
//	| payload length (uvarint) | payload | fnv64a(payload)
//
// The header carries everything the pipeline needs to decide whether the
// artifact is reusable — what it is (kind), which encoding it uses
// (artifact version), and which inputs produced it (fingerprint) —
// without decoding the payload. Any version disagreement surfaces as a
// clear ErrVersionMismatch instead of garbage decode output.
//
// Payload primitives are varint-based and every artifact encoder walks
// its maps in sorted key order, so a given value always encodes to the
// same bytes — which is what lets the pipeline chain stage fingerprints
// through artifact content hashes.
//
// Codecs live here: a Codec value is the one declaration of a kind,
// shared by the pipeline, clientmapd and statefsck. The stream hour and
// the serving map declare theirs beside their formats.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"time"

	"clientmap/internal/randx"
)

// FormatVersion is the container format version this binary reads and
// writes. Bump it when the header or framing changes shape.
const FormatVersion = 1

var magic = [4]byte{'C', 'M', 'S', 'P'}

// ErrVersionMismatch reports a snapshot written by a different format or
// artifact version than this binary understands.
var ErrVersionMismatch = errors.New("snapshot version mismatch")

// ErrCorrupt reports a truncated or checksum-failing snapshot.
var ErrCorrupt = errors.New("snapshot corrupt")

// Header identifies a snapshot's artifact.
type Header struct {
	// Kind names the artifact type (e.g. "cacheprobe.Campaign").
	Kind string
	// Version is the artifact encoding version for Kind.
	Version uint16
	// Fingerprint is the producing stage's input fingerprint; the
	// pipeline only reuses a snapshot whose fingerprint matches the
	// fingerprint it recomputed from the current configuration.
	Fingerprint string
}

// Codec declares one checkpoint kind: the kind and encoding version its
// header records and the payload's encode/decode pair. Base, set on
// delta kinds only, returns the payload hash of the checkpoint a decoded
// delta applies to. Each kind is declared once, by the package that owns
// its format; the pipeline persists stages through that value and
// statefsck deep-checks files with it.
type Codec[T any] struct {
	Kind    string
	Version uint16
	Encode  func(*Writer, T)
	Decode  func(*Reader) (T, error)
	Base    func(T) string
}

// Marshal frames v under the codec's kind and version (see Marshal).
func (c *Codec[T]) Marshal(fingerprint string, v T) (data []byte, payloadHash string) {
	return Marshal(Header{Kind: c.Kind, Version: c.Version, Fingerprint: fingerprint},
		func(w *Writer) { c.Encode(w, v) })
}

// Check verifies that h carries the codec's kind and version (see Check).
func (c *Codec[T]) Check(h Header) error { return Check(h, c.Kind, c.Version) }

// ID returns the kind the codec reads and writes.
func (c *Codec[T]) ID() string { return c.Kind }

// DecodeBase decodes a payload and returns its recorded base ("" if none).
func (c *Codec[T]) DecodeBase(r *Reader) (string, error) {
	v, err := c.Decode(r)
	if err != nil || c.Base == nil {
		return "", err
	}
	return c.Base(v), nil
}

// Writer accumulates a payload. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Varint appends a signed varint.
func (w *Writer) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Int appends an int as a signed varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// Float64 appends the IEEE-754 bits of v.
func (w *Writer) Float64(v float64) { w.Uvarint(math.Float64bits(v)) }

// Bool appends a boolean.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Time appends t as Unix nanoseconds. Decoding restores the instant in
// UTC, so only encode UTC-based times (all simulated times are).
func (w *Writer) Time(t time.Time) { w.Varint(t.UnixNano()) }

// Reader consumes a payload with a sticky error: after the first
// malformed read every subsequent read returns zero values, and Err
// reports what went wrong.
type Reader struct {
	buf []byte
	off int
	err error
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated or malformed %s at offset %d", ErrCorrupt, what, r.off)
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

// Int reads an int.
func (r *Reader) Int() int { return int(r.Varint()) }

// Float64 reads an IEEE-754 value.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uvarint()) }

// Bool reads a boolean.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail("bool")
		return false
	}
	b := r.buf[r.off]
	r.off++
	return b != 0
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.buf)-r.off) < n {
		r.fail("string")
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Time reads an instant written by Writer.Time, in UTC.
func (r *Reader) Time() time.Time { return time.Unix(0, r.Varint()).UTC() }

// SliceLen reads a count prefixing a sequence whose elements each
// occupy at least minBytes of encoded payload, and bounds it against
// what actually remains. The checksum only proves the payload matches
// what was written, not that what was written is sane: a forged payload
// can claim a billion-element slice in three bytes, and a decoder that
// pre-allocates make([]T, n) from it dies on the spot. Negative counts
// and counts that cannot fit in the remaining bytes fail the reader
// with ErrCorrupt and return 0.
func (r *Reader) SliceLen(minBytes int) int {
	n := r.Int()
	if r.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n < 0 || n > (len(r.buf)-r.off)/minBytes {
		r.fail("sequence count")
		return 0
	}
	return n
}

// Marshal frames a payload produced by enc under the given header and
// returns the snapshot file bytes plus the payload's content hash (the
// value pipeline fingerprints chain on).
func Marshal(h Header, enc func(*Writer)) (data []byte, payloadHash string) {
	var pw Writer
	enc(&pw)
	payload := pw.buf

	var w Writer
	w.buf = append(w.buf, magic[:]...)
	w.Uvarint(FormatVersion)
	w.String(h.Kind)
	w.Uvarint(uint64(h.Version))
	w.String(h.Fingerprint)
	w.Uvarint(uint64(len(payload)))
	w.buf = append(w.buf, payload...)
	w.Uvarint(randx.FNV64a(payload))
	return w.buf, HashBytes(payload)
}

// Open parses a snapshot file, verifies the container format and
// checksum, and returns the header, a Reader positioned at the payload,
// and the payload's content hash.
func Open(data []byte) (Header, *Reader, string, error) {
	r := &Reader{buf: data}
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic[:]) {
		return Header{}, nil, "", fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	r.off = len(magic)
	format := r.Uvarint()
	if r.err == nil && format != FormatVersion {
		return Header{}, nil, "", fmt.Errorf("%w: file format v%d, this binary reads v%d",
			ErrVersionMismatch, format, FormatVersion)
	}
	h := Header{Kind: r.String()}
	h.Version = uint16(r.Uvarint())
	h.Fingerprint = r.String()
	plen := r.Uvarint()
	if r.err != nil {
		return Header{}, nil, "", r.err
	}
	if uint64(len(r.buf)-r.off) < plen {
		return Header{}, nil, "", fmt.Errorf("%w: payload truncated", ErrCorrupt)
	}
	payload := r.buf[r.off : r.off+int(plen)]
	sumReader := &Reader{buf: r.buf, off: r.off + int(plen)}
	sum := sumReader.Uvarint()
	if sumReader.err != nil {
		return Header{}, nil, "", sumReader.err
	}
	if sum != randx.FNV64a(payload) {
		return Header{}, nil, "", fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}
	return h, &Reader{buf: payload}, HashBytes(payload), nil
}

// Check verifies that a parsed header carries the artifact the caller
// expects. Version disagreement is an ErrVersionMismatch with both sides
// spelled out — the contract the pipeline and its tests rely on.
func Check(h Header, kind string, version uint16) error {
	if h.Kind != kind {
		return fmt.Errorf("%w: snapshot holds %q, want %q", ErrVersionMismatch, h.Kind, kind)
	}
	if h.Version != version {
		return fmt.Errorf("%w: %s snapshot is v%d, this binary reads v%d",
			ErrVersionMismatch, kind, h.Version, version)
	}
	return nil
}

// HashBytes returns the hex SHA-256 of b.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
