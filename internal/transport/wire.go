// Package transport implements the Ensemble Transport module: it sits
// below the bottom protocol layer, marshals an event's header stack and
// payload into a byte sequence before it is sent onto the network, and
// unmarshals on receipt (paper §4.2, Fig. 4). Ensemble has no fixed wire
// format for headers (§4, item 2): the transport serializes whatever
// header stack it is handed, using per-layer codecs registered by the
// micro-protocol components. That TLV form carries the header shapes no
// wire signature covers; a header stack of a known signature rides in
// the compressed form (a short stack identifier plus only the varying
// fields), which the optimizer's signature table encodes and decodes
// (internal/opt, sigcodec.go).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Writer builds a wire image. It emulates a scatter-gather (iovec)
// interface: headers are appended into one buffer and the payload is kept
// as a separate segment, gathered only at the final Bytes call, mirroring
// how Ensemble avoids payload copies with the UNIX scatter-gather
// capability (§4.2: "we avoid copying by making use of the scatter-gather
// interfaces").
type Writer struct {
	hdr     []byte
	payload []byte
	out     []byte
	// vals is scratch for a header's field values (SpecCodec): an array,
	// so that taking it stores no pointer.
	vals [8]int64
}

// Reset clears the writer for reuse, keeping its buffer.
func (w *Writer) Reset() {
	w.hdr = w.hdr[:0]
	w.payload = nil
}

// Byte appends a single byte.
func (w *Writer) Byte(b byte) { w.hdr = append(w.hdr, b) }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.hdr = binary.AppendUvarint(w.hdr, v) }

// Varint appends a signed varint.
func (w *Writer) Varint(v int64) { w.hdr = binary.AppendVarint(w.hdr, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Bytes64 appends a length-prefixed byte slice.
func (w *Writer) Bytes64(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.hdr = append(w.hdr, b...)
}

// SetPayload attaches the payload segment (not copied until Bytes).
func (w *Writer) SetPayload(p []byte) { w.payload = p }

// HeaderLen reports the bytes written so far, excluding the payload.
func (w *Writer) HeaderLen() int { return len(w.hdr) }

// Header returns the bytes written so far, excluding the payload. The
// slice is the writer's own buffer: appends may move it, Reset reuses it.
func (w *Writer) Header() []byte { return w.hdr }

// Raw appends bytes that are already encoded.
func (w *Writer) Raw(b []byte) { w.hdr = append(w.hdr, b...) }

// Bytes gathers the header and payload segments into one freshly
// allocated wire image the caller owns. Hot paths use Seal instead.
func (w *Writer) Bytes() []byte {
	out := make([]byte, 0, len(w.hdr)+len(w.payload))
	out = append(out, w.hdr...)
	out = append(out, w.payload...)
	return out
}

// Seal gathers the header and payload segments into an internal buffer
// the writer reuses: the returned slice is valid only until the next
// Seal or Reset on this writer. Callers that retain the wire image past
// that point must copy it.
func (w *Writer) Seal() []byte {
	w.out = append(w.out[:0], w.hdr...)
	w.out = append(w.out, w.payload...)
	return w.out
}

// AppendTo gathers into dst, for callers that manage their own buffers.
func (w *Writer) AppendTo(dst []byte) []byte {
	dst = append(dst, w.hdr...)
	return append(dst, w.payload...)
}

// ErrTruncated reports a wire image shorter than its encoding claims.
var ErrTruncated = errors.New("transport: truncated wire image")

// Reader consumes a wire image.
type Reader struct {
	buf []byte
	off int
	err error
	// vals is scratch for a header's field values (SpecCodec): an array,
	// so that taking it stores no pointer.
	vals [8]int64
}

// NewReader wraps buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset points the reader at buf, clearing any prior error, so one
// Reader can decode many wire images without reallocating.
func (r *Reader) Reset(buf []byte) {
	r.buf, r.off, r.err = buf, 0, nil
}

// Err returns the first decode error encountered.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
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
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Bytes64 reads a length-prefixed byte slice (aliasing the input buffer).
func (r *Reader) Bytes64() []byte {
	n := r.Uvarint()
	// Compared unsigned: a length past 2^63 must not wrap int(n) negative.
	if r.err != nil || n > uint64(len(r.buf)-r.off) {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// Rest returns all remaining bytes (the payload segment).
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off:]
	r.off = len(r.buf)
	return b
}

// Remaining reports how many bytes are left.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// ErrBadWire wraps decode failures with context.
func ErrBadWire(format string, args ...any) error {
	return fmt.Errorf("transport: bad wire image: "+format, args...)
}
