package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ensemble/internal/event"
	"ensemble/internal/ir"
)

// HeaderCodec serializes one layer's headers. Each micro-protocol
// component registers a codec for the header types it pushes; the
// transport walks a message's header stack and dispatches on the
// wire-level layer id — event.Header.WireID when marshaling, the id
// byte when unmarshaling.
type HeaderCodec struct {
	// Layer is the component name the codec belongs to.
	Layer string
	// ID is the wire identifier, never 0; stable across processes because
	// layers register in init with fixed ids. The layer's headers report
	// it as their WireID.
	ID byte
	// Encode appends the header body to w, and Decode reads one from r.
	// Nil in a codec derived from its variants (SpecCodec).
	Encode func(h event.Header, w *Writer)
	Decode func(r *Reader) (event.Header, error)
	// byTag, built at registration, holds hdrs by tag; a codec of one
	// variant without fields writes no tag (tagged is false) and keeps it
	// at 0. An array, so that decoding a header touches no memory beyond
	// its codec but the header's own spec.
	tagged bool
	byTag  [8]variant
	// hdrs are the layer's variants and their wire contracts (SpecCodec).
	// A codec without them admits its headers on any event, passed up.
	hdrs []ir.HdrSpec
}

// variant is one entry of a codec's byTag: its spec, with the contract
// copied out of it (on has bit k set for each event type k in spec.On).
type variant struct {
	spec *ir.HdrSpec
	on   uint64
	fate ir.Fate
	// hdr is the header of a derived variant without fields, the same
	// value on every decode; nil for the others.
	hdr event.Header
}

// SpecCodec returns the codec of a layer whose header variants are
// hdrs, with their wire contracts for UnmarshalFor to hold arrivals to.
// The encoding is derived from them: a layer of one variant without
// fields writes nothing after its layer id; otherwise a header is its
// variant's tag byte, then its fields as signed varints in Fields order.
// A layer whose variants carry other shapes sets Encode and Decode and
// keeps the contract: its encodings must still open with the tag.
func SpecCodec(layer string, id byte, hdrs []ir.HdrSpec) HeaderCodec {
	return HeaderCodec{Layer: layer, ID: id, hdrs: hdrs}
}

// lookup returns the entry of the header r is at. Nil for an unknown
// tag, or for a codec without a contract.
func (c *HeaderCodec) lookup(r *Reader) *variant {
	t := 0
	if c.tagged {
		if r.off >= len(r.buf) {
			return nil
		}
		t = int(r.buf[r.off])
	}
	if t >= len(c.byTag) || c.byTag[t].spec == nil {
		return nil
	}
	return &c.byTag[t]
}

// encode appends h's body to w.
func (c *HeaderCodec) encode(h event.Header, w *Writer) {
	if c.Encode != nil {
		c.Encode(h, w)
		return
	}
	if !c.tagged {
		return
	}
	for i := range c.hdrs {
		if vals, ok := c.hdrs[i].Read(h, w.vals[:0]); ok {
			w.Byte(byte(c.hdrs[i].Tag))
			for _, v := range vals {
				w.Varint(v)
			}
			return
		}
	}
	panic(fmt.Sprintf("transport: layer %q has no variant for header %T", c.Layer, h))
}

// decode reads one header body and returns it with its variant's entry
// (nil without a contract).
func (c *HeaderCodec) decode(r *Reader) (event.Header, *variant, error) {
	v := c.lookup(r)
	if c.Decode != nil {
		h, err := c.Decode(r)
		return h, v, err
	}
	if v == nil {
		return nil, nil, ErrBadWire("%s tag %d", c.Layer, r.Byte())
	}
	if c.tagged {
		r.off++
	}
	if v.hdr != nil {
		return v.hdr, v, nil
	}
	vals := r.vals[:0]
	for range v.spec.Fields {
		vals = append(vals, r.Varint())
	}
	return v.spec.Make(vals), v, nil
}

// The registry has two phases. During init, components register codecs
// under codecMu. The first lookup seals the registry into an immutable
// snapshot (a map plus a dense array, read through one atomic load):
// the hot path marshals and unmarshals one header per layer per packet,
// and an RLock per header was measurably on the critical path (see
// BenchmarkHeaderCodecLookup). Registration after the seal panics — it
// is a component-library configuration bug (codecs belong in init), and
// silently missing it from the snapshot would be far worse.
var (
	codecMu      sync.Mutex
	codecByLayer = map[string]*HeaderCodec{}
	codecByID    = map[byte]*HeaderCodec{}
	codecTab     atomic.Pointer[codecTables]
)

// codecTables is the immutable post-init snapshot of the registry.
type codecTables struct {
	byLayer map[string]*HeaderCodec
	byID    [256]*HeaderCodec
}

// RegisterCodec installs a header codec. Duplicate layer names or wire
// ids panic, as does registration after the first lookup has sealed
// the registry: both are component-library configuration bugs.
func RegisterCodec(c HeaderCodec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	if codecTab.Load() != nil {
		panic(fmt.Sprintf("transport: RegisterCodec(%q) after the registry was sealed by a lookup — codecs must be registered in init", c.Layer))
	}
	if c.ID == 0 {
		panic(fmt.Sprintf("transport: codec for layer %q has wire id 0, which means no codec", c.Layer))
	}
	if _, dup := codecByLayer[c.Layer]; dup {
		panic(fmt.Sprintf("transport: duplicate codec for layer %q", c.Layer))
	}
	if prev, dup := codecByID[c.ID]; dup {
		panic(fmt.Sprintf("transport: codec id %d used by both %q and %q", c.ID, prev.Layer, c.Layer))
	}
	c.tagged = len(c.hdrs) != 1 || len(c.hdrs[0].Fields) != 0
	for i := range c.hdrs {
		s := &c.hdrs[i]
		if len(s.On) == 0 || s.Fate == 0 || s.Tag < 0 || s.Tag >= int64(len(c.byTag)) {
			panic(fmt.Sprintf("transport: header variant %s.%s declares no wire contract, or a tag past %d", c.Layer, s.Variant, len(c.byTag)-1))
		}
		t := 0
		if c.tagged {
			t = int(s.Tag)
		}
		c.byTag[t].spec, c.byTag[t].fate = s, s.Fate
		for _, k := range s.On {
			c.byTag[t].on |= 1 << k
		}
		if c.Decode == nil && len(s.Fields) == 0 {
			// Every decode shares it, so a pooled header may not.
			h := s.Make(nil)
			if _, pooled := h.(event.PooledHeader); !pooled {
				c.byTag[t].hdr = h
			}
		}
	}
	cc := c
	codecByLayer[c.Layer] = &cc
	codecByID[c.ID] = &cc
}

// sealCodecs builds the immutable snapshot on the first lookup. All
// registration happens in package init, which the runtime completes
// before any lookup can run, so sealing here is safe; the mutex only
// arbitrates concurrent first lookups.
func sealCodecs() *codecTables {
	codecMu.Lock()
	defer codecMu.Unlock()
	if t := codecTab.Load(); t != nil {
		return t
	}
	t := &codecTables{byLayer: make(map[string]*HeaderCodec, len(codecByLayer))}
	for name, c := range codecByLayer {
		t.byLayer[name] = c
	}
	for id, c := range codecByID {
		t.byID[id] = c
	}
	codecTab.Store(t)
	return t
}

func codecs() *codecTables {
	if t := codecTab.Load(); t != nil {
		return t
	}
	return sealCodecs()
}

func lookupCodecByID(id byte) (*HeaderCodec, error) {
	c := codecs().byID[id]
	if c == nil {
		return nil, fmt.Errorf("transport: no codec registered for wire id %d", id)
	}
	return c, nil
}

// Wire format of a full (uncompressed) message:
//
//	magic      byte    = wireFull
//	evType     byte
//	sender     varint  (sender's rank; the destination is carried by the
//	                    network, and the receive path needs the origin)
//	applMsg    bool
//	nhdrs      uvarint
//	headers    nhdrs × { layerID byte, body }   (outermost first)
//	payload    rest
//
// The compressed format (compress.go) replaces everything before the
// payload with a short prefix plus the varying header fields.
const (
	wireFull       = 0x01
	wireCompressed = 0xC0
)

// WireCompressed is the magic byte of the compressed format, exported so
// receive paths can dispatch between the full decoder and a generated
// uncompressor.
const WireCompressed = wireCompressed

// Marshal serializes an event for the network. sender is this process's
// rank in the current view; the receive path surfaces it as the event's
// origin. The header stack is written outermost (bottom layer) first so
// that the receive path can pop headers as it decodes.
func Marshal(ev *event.Event, sender int, w *Writer) error {
	w.Reset()
	w.Byte(wireFull)
	w.Byte(byte(ev.Type))
	w.Varint(int64(sender))
	w.Bool(ev.ApplMsg)
	w.Uvarint(uint64(len(ev.Msg.Headers)))
	if err := encodeHeaders(ev.Msg.Headers, w); err != nil {
		return err
	}
	w.SetPayload(ev.Msg.Payload)
	return nil
}

// encodeHeaders appends a header stack, outermost first. Headers[len-1]
// is the most recently pushed (the bottom layer's): that is the
// outermost header and must be decoded first.
func encodeHeaders(hdrs []event.Header, w *Writer) error {
	for i := len(hdrs) - 1; i >= 0; i-- {
		if err := EncodeHeader(hdrs[i], w); err != nil {
			return err
		}
	}
	return nil
}

// EncodeHeader appends one header as Marshal writes it: its layer's wire
// id, then the body. The optimizer uses it to pre-encode the header
// stacks its bypasses buffer.
func EncodeHeader(h event.Header, w *Writer) error {
	c := codecs().byID[h.WireID()]
	if c == nil {
		return fmt.Errorf("transport: no codec registered for layer %q", h.Layer())
	}
	w.Byte(c.ID)
	c.encode(h, w)
	return nil
}

// readerPool recycles Readers: the codec Decode calls are indirect, so
// a stack Reader would escape and allocate per packet.
var readerPool = sync.Pool{New: func() any { return new(Reader) }}

// Unmarshal decodes a wire image produced by Marshal into a pooled
// up-going event whose Peer is the sender's rank. The header stack is
// rebuilt in the event's reused header storage so that the outermost
// header is on top (popped first by the bottom layer).
func Unmarshal(buf []byte) (*event.Event, error) { return UnmarshalFor(buf, nil) }

// UnmarshalFor is Unmarshal at a receiver whose stack's layers have the
// wire ids stack (top first, as StackIDs returns them). It admits what a
// peer running the same stack sends, checked in the one decoding pass:
// one header for each of the stack's bottom-most layers, at least the
// bottom one, in stack order; each a variant its layer's contract
// (ir.HdrSpec.On) lets ride the event's kind, which is a cast above a
// variant passed up as one; no header above a variant its layer
// consumes; and an image shorter than the stack ends in one. An image of
// any type but ECast or ESend is ErrBadWire, with or without a stack, as
// is anything else: each layer pops one header, so a well-formed image
// of another shape would hand some layer a variant it never meets, or an
// empty stack to pop. A nil stack accepts any headers.
func UnmarshalFor(buf []byte, stack []byte) (*event.Event, error) {
	r := readerPool.Get().(*Reader)
	r.Reset(buf)
	ev, err := unmarshal(r, stack)
	r.Reset(nil)
	readerPool.Put(r)
	return ev, err
}

// StackIDs returns the wire ids of the named layers' codecs, 0 (which
// matches no header) for a layer without one.
func StackIDs(layers []string) []byte {
	ids := make([]byte, len(layers))
	for i, name := range layers {
		if c := codecs().byLayer[name]; c != nil {
			ids[i] = c.ID
		}
	}
	return ids
}

func unmarshal(r *Reader, stack []byte) (*event.Event, error) {
	if m := r.Byte(); m != wireFull {
		return nil, ErrBadWire("magic %#x, want %#x", m, wireFull)
	}
	// Only casts and sends are ever marshaled; any other type off the
	// wire would reach layers that pass it through as their own event (an
	// Exit, a Block).
	typ := event.Type(r.Byte())
	if typ != event.ECast && typ != event.ESend {
		return nil, ErrBadWire("event type %v", typ)
	}
	ev := event.Alloc()
	ev.Dir = event.Up
	ev.Type = typ
	ev.Peer = int(r.Varint())
	ev.ApplMsg = r.Bool()
	if err := decodeHeaders(r, &ev.Msg, r.Uvarint(), stack, typ); err != nil {
		event.Free(ev)
		return nil, err
	}
	ev.Msg.Payload = r.Rest()
	if err := r.Err(); err != nil {
		event.Free(ev)
		return nil, err
	}
	return ev, nil
}

// maxHeaders bounds a message's header count: no stack is this deep, so
// a larger count is a corrupt image.
const maxHeaders = 64

// decodeHeaders reads n headers (outermost first) from r into m's reused
// header storage, and records where each began so that m.EncodedHeaders
// can hand back what is left of them after any number of pops. With a
// stack (see UnmarshalFor) the headers must be those of its bottom-most
// layers, each admitted by its contract on an event of the given kind.
// On error m holds exactly the headers decoded so far (the caller frees
// them with the event).
func decodeHeaders(r *Reader, m *event.Message, n uint64, stack []byte, kind event.Type) error {
	if n > maxHeaders {
		return ErrBadWire("implausible header count %d", n)
	}
	if stack != nil && (n == 0 || n > uint64(len(stack))) {
		return ErrBadWire("%d headers for a stack of %d layers", n, len(stack))
	}
	// Slots are nil-filled up front so that an error mid-decode frees
	// exactly the headers decoded so far.
	hdrs := m.Headers[:0]
	for i := uint64(0); i < n; i++ {
		hdrs = append(hdrs, nil)
	}
	m.Headers = hdrs
	offs := m.EncOffsets()
	// Decoded outermost-first; store so the outermost ends at the top of
	// the stack (highest index).
	consumed := false
	for i := int(n) - 1; i >= 0; i-- {
		offs[i] = uint32(r.off)
		id := r.Byte()
		if stack != nil && id != stack[len(stack)-int(n)+i] {
			return ErrBadWire("header %d has wire id %d, the stack's layer there has %d", i, id, stack[len(stack)-int(n)+i])
		}
		c, err := lookupCodecByID(id)
		if err != nil {
			return err
		}
		h, v, err := c.decode(r)
		if err != nil {
			return err
		}
		hdrs[i] = h
		if stack == nil || v == nil && c.hdrs == nil {
			continue
		}
		switch {
		case v == nil || v.on&(1<<kind) == 0:
			return ErrBadWire("%s on a %v", h.HdrString(), kind)
		case v.fate == ir.Consumed && i > 0:
			return ErrBadWire("%s ends the message, and %d headers ride above it", h.HdrString(), i)
		case v.fate == ir.PassedUpAsCast:
			kind = event.ECast
		}
		consumed = v.fate == ir.Consumed
	}
	if err := r.Err(); err != nil {
		return err
	}
	if stack != nil && n < uint64(len(stack)) && !consumed {
		// hdrs[0] is the innermost: passed up, the next layer would pop
		// an empty stack.
		return ErrBadWire("%d headers for a stack of %d layers, and %s passes the message up", n, len(stack), hdrs[0].HdrString())
	}
	m.SetEncoded(r.buf[:r.off])
	return nil
}
