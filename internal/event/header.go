package event

import "fmt"

// Header is one layer's contribution to a message. As a message travels
// down the stack each layer pushes its header; travelling up, each layer
// pops and interprets its own header. There is no fixed wire format for
// headers in Ensemble (§4, item 2) — the transport marshals whatever
// stack of headers it is handed, and the optimizer's header compression
// replaces the common-case stack with a short identifier.
type Header interface {
	// Layer names the micro-protocol the header belongs to.
	Layer() string
	// WireID is the wire identifier of the layer's header codec
	// (transport.HeaderCodec.ID): how the transport finds the encoder
	// without looking the layer up by name. 0 for a header no codec
	// serializes.
	WireID() byte
	// HdrString renders the header for traces.
	HdrString() string
}

// PooledHeader is implemented by headers whose storage comes from a
// HdrPool. The data path recycles them the way Ensemble's private
// message allocator recycled header records (§4, item 1): Free returns
// every pooled header still on an event's stack, so each header is
// owned by exactly one event. Code that copies a header stack must go
// through CloneHdr (or AppendClonedHeaders); code that pops a pooled
// header and drops it must call FreeHdr.
type PooledHeader interface {
	Header
	// CloneHdr returns an independently owned copy.
	CloneHdr() Header
	// FreeHdr returns the header to its pool. The caller must not touch
	// the header afterwards.
	FreeHdr()
}

// CloneHeader copies h if it is pooled; plain value headers are shared
// freely and returned as-is.
func CloneHeader(h Header) Header {
	if p, ok := h.(PooledHeader); ok {
		return p.CloneHdr()
	}
	return h
}

// AppendClonedHeaders appends independently owned copies of src to dst.
// This is the only safe way to duplicate a header stack that may hold
// pooled headers: a plain slice copy would alias them and free them
// twice.
func AppendClonedHeaders(dst, src []Header) []Header {
	for _, h := range src {
		dst = append(dst, CloneHeader(h))
	}
	return dst
}

// FreeHeader releases h if it is pooled; plain value headers need no
// release.
func FreeHeader(h Header) {
	if p, ok := h.(PooledHeader); ok {
		p.FreeHdr()
	}
}

// NoHdr is pushed by layers that must delimit their place in the header
// stack but have nothing to say for this event (the paper's
// Full_nohdr(hdr) in the Bottom optimization theorem).
type NoHdr struct{ L string }

// Layer implements Header.
func (h NoHdr) Layer() string { return h.L }

// WireID implements Header: no codec serializes a NoHdr.
func (h NoHdr) WireID() byte { return 0 }

// HdrString implements Header.
func (h NoHdr) HdrString() string { return h.L + ":NoHdr" }

// Message is a payload plus the stack of headers pushed so far.
// Headers[len-1] is the most recently pushed (innermost layer last).
type Message struct {
	Payload []byte
	Headers []Header

	// enc, when non-nil, is the byte sequence the transport decoded the
	// header stack from: header i's encoding starts at enc[encOff[i]]
	// (headers are encoded outermost first, so a lower stack index sits
	// later in enc). Pops keep the record valid — what remains of the
	// stack is encoded by a suffix of enc — so a layer that buffers an
	// arrived message copies that suffix instead of re-encoding or
	// cloning (EncodedHeaders). Push invalidates it.
	enc    []byte
	encOff []uint32
}

// Push appends a header to the stack.
func (m *Message) Push(h Header) {
	m.Headers = append(m.Headers, h)
	if m.enc != nil {
		m.enc = nil
	}
}

// EncOffsets forgets any encoding on record and returns the offset table,
// one entry per header now on the stack, for a decoder to fill: entry i
// is where header i's encoding begins in the buffer it will pass to
// SetEncoded. Only decoders call either.
func (m *Message) EncOffsets() []uint32 {
	n := len(m.Headers)
	if cap(m.encOff) < n {
		m.encOff = make([]uint32, n)
	}
	m.enc, m.encOff = nil, m.encOff[:n]
	return m.encOff
}

// SetEncoded records that Headers was just decoded from enc, at the
// offsets the decoder wrote into EncOffsets.
func (m *Message) SetEncoded(enc []byte) { m.enc = enc }

// EncodedHeaders returns the bytes that encode the header stack as it
// stands, outermost first, when the stack is still a popped-only
// remainder of what a decoder produced. The slice aliases the arrival
// buffer: copy it to keep it.
func (m *Message) EncodedHeaders() ([]byte, bool) {
	k := len(m.Headers)
	if m.enc == nil || k > len(m.encOff) {
		return nil, false
	}
	if k == 0 {
		return m.enc[len(m.enc):], true
	}
	return m.enc[m.encOff[k-1]:], true
}

// Pop removes and returns the top header. It panics if the stack is
// empty: a layer popping past the bottom is a wiring bug, not a runtime
// condition.
func (m *Message) Pop() Header {
	n := len(m.Headers)
	if n == 0 {
		panic("event: header pop on empty stack")
	}
	h := m.Headers[n-1]
	m.Headers = m.Headers[:n-1]
	return h
}

// Top returns the top header without removing it, or nil when empty.
func (m *Message) Top() Header {
	if n := len(m.Headers); n > 0 {
		return m.Headers[n-1]
	}
	return nil
}

// String renders the message for traces.
func (m Message) String() string {
	return fmt.Sprintf("msg(|payload|=%d, headers=%d)", len(m.Payload), len(m.Headers))
}
