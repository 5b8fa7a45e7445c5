package layers

import (
	"bytes"
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// fragState fragments payloads larger than MaxFragSize and reassembles
// them at the receiver. The layers below deliver FIFO per channel
// (pt2pt per peer, mnak per origin), so fragments of one message arrive
// contiguously and reassembly is sequential per channel. The common case
// — an unfragmented message — carries the constant Solo header, which is
// what makes this layer almost free after header compression (§4.1.3).
type fragState struct {
	view    *event.View
	maxFrag int

	// casts[o] reassembles multicast fragments from origin o;
	// sends[p] reassembles point-to-point fragments from peer p.
	casts []fragAsm
	sends []fragAsm
}

// fragAsm reassembles one channel's current message. The parts are held
// by reference until the last one arrives: frag sits below local, so
// what comes up through it is an arrival buffer (or a slab of a log
// below) that the receiver owns and nobody rewrites — unless the event
// says its payload is borrowed, and then the part is copied. The one
// copy of owned parts is the one that joins them.
type fragAsm struct {
	parts   [][]byte
	expect  uint32
	applMsg bool
}

// reset drops the partial message, keeping the parts list's storage.
func (a *fragAsm) reset() {
	clear(a.parts)
	a.parts, a.expect = a.parts[:0], 0
}

// frag header variants.
type (
	// fragSolo tags an unfragmented message (the common case).
	fragSolo struct{}
	// fragFrag tags fragment Idx of Of.
	fragFrag struct{ Idx, Of uint32 }
)

func (fragSolo) Layer() string { return Frag }
func (fragSolo) WireID() byte  { return idFrag }
func (fragFrag) Layer() string { return Frag }
func (fragFrag) WireID() byte  { return idFrag }

func (fragSolo) HdrString() string   { return "frag:Solo" }
func (h fragFrag) HdrString() string { return fmt.Sprintf("frag:Frag(%d/%d)", h.Idx, h.Of) }

const (
	fragTagSolo byte = iota
	fragTagFrag
)

var fragHdrs = []ir.HdrSpec{
	bareHdr[fragSolo]("Solo", fragTagSolo, onData, ir.PassedUp),
	{Variant: "Frag", Tag: int64(fragTagFrag), Fields: []string{"idx", "of"},
		On: onData, Fate: ir.PassedUp,
		Make: func(f []int64) event.Header { return fragFrag{Idx: uint32(f[0]), Of: uint32(f[1])} },
		Read: readAs(func(g fragFrag, dst []int64) []int64 { return append(dst, int64(g.Idx), int64(g.Of)) })},
}

func init() {
	layer.Register(Frag, func(cfg layer.Config) layer.State {
		n := cfg.View.N()
		return &fragState{
			view:    cfg.View,
			maxFrag: cfg.MaxFragSize,
			casts:   make([]fragAsm, n),
			sends:   make([]fragAsm, n),
		}
	})
	// Fragment numbers are unsigned varints, so the codec is written out.
	c := transport.SpecCodec(Frag, idFrag, fragHdrs)
	c.Encode = func(h event.Header, w *transport.Writer) {
		switch h := h.(type) {
		case fragSolo:
			w.Byte(fragTagSolo)
		case fragFrag:
			w.Byte(fragTagFrag)
			w.Uvarint(uint64(h.Idx))
			w.Uvarint(uint64(h.Of))
		default:
			panic(fmt.Sprintf("frag: unknown header %T", h))
		}
	}
	c.Decode = func(r *transport.Reader) (event.Header, error) {
		switch tag := r.Byte(); tag {
		case fragTagSolo:
			return fragSolo{}, nil
		case fragTagFrag:
			return fragFrag{Idx: uint32(r.Uvarint()), Of: uint32(r.Uvarint())}, nil
		default:
			return nil, transport.ErrBadWire("frag tag %d", tag)
		}
	}
	transport.RegisterCodec(c)
}

func (s *fragState) Name() string { return Frag }

func (s *fragState) HandleDn(ev *event.Event, snk layer.Sink) {
	if !isData(ev) {
		snk.PassDn(ev)
		return
	}
	payload := ev.Msg.Payload
	if len(payload) <= s.maxFrag {
		ev.Msg.Push(fragSolo{})
		snk.PassDn(ev)
		return
	}
	nfrag := (len(payload) + s.maxFrag - 1) / s.maxFrag
	for i := 0; i < nfrag; i++ {
		lo := i * s.maxFrag
		hi := min(lo+s.maxFrag, len(payload))
		out := event.Alloc()
		out.Dir, out.Type, out.Peer = event.Dn, ev.Type, ev.Peer
		out.ApplMsg, out.Borrowed = ev.ApplMsg, ev.Borrowed
		out.Msg.Payload = payload[lo:hi]
		// Every fragment carries the upper layers' headers so the
		// receiver can hand the reassembled message up with them.
		out.Msg.Headers = copyHdrs(ev.Msg.Headers)
		out.Msg.Push(fragFrag{Idx: uint32(i), Of: uint32(nfrag)})
		snk.PassDn(out)
	}
	event.Free(ev)
}

func (s *fragState) HandleUp(ev *event.Event, snk layer.Sink) {
	if !isData(ev) {
		snk.PassUp(ev)
		return
	}
	asm := &s.sends[ev.Peer]
	if ev.Type == event.ECast {
		asm = &s.casts[ev.Peer]
	}
	switch h := ev.Msg.Pop().(type) {
	case fragSolo:
		snk.PassUp(ev)
	case fragFrag:
		if h.Idx != asm.expect || h.Of == 0 {
			// The channels below are FIFO and lossless, so a hole here is
			// a wiring bug or a corrupted image: drop the partial message
			// and resynchronize on the next first fragment.
			asm.reset()
			if h.Idx != 0 {
				event.Free(ev)
				return
			}
		}
		if h.Idx == 0 {
			asm.applMsg = ev.ApplMsg
		}
		asm.parts = append(asm.parts, ev.OwnPayload())
		asm.expect = h.Idx + 1
		if asm.expect == h.Of {
			// bytes.Join allocates without zeroing what it overwrites.
			whole := bytes.Join(asm.parts, nil)
			// The last fragment's event carries the message on: what is left
			// of its header stack is the upper layers' (every fragment
			// carries a copy), so nothing is cloned.
			ev.ApplMsg = asm.applMsg
			ev.Msg.Payload = whole
			asm.reset()
			snk.PassUp(ev)
			return
		}
		event.Free(ev)
	default:
		panic(fmt.Sprintf("frag: unexpected up header %T", h))
	}
}
