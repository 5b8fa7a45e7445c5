package layers

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// signState authenticates application payloads with an HMAC-SHA256 tag —
// Ensemble's micro-protocol library includes signing and encryption
// components (paper §2), and this is the signing half. The tag covers
// the payload and the view identity (group, view, origin rank), binding
// each message to its epoch: replays from other views or senders fail
// verification and are dropped.
//
// Scope: payload authenticity. Protocol headers pushed by layers below
// the signer are not covered (they are below the signature on the wire);
// tampering with them disrupts liveness, not payload integrity. The
// signer has no IR definition, so stacks containing it always run the
// full path — signing is never a partial-evaluation common case.
type signState struct {
	view *event.View
	key  []byte

	// BadMacs counts verification failures (dropped messages).
	badMacs int64
}

// signHdr carries the authentication tag.
type signHdr struct {
	// Mac is the HMAC-SHA256 tag, stored as a fixed array so headers
	// stay comparable values.
	Mac [sha256.Size]byte
}

func (signHdr) Layer() string       { return Sign }
func (signHdr) WireID() byte        { return idSign }
func (h signHdr) HdrString() string { return fmt.Sprintf("sign:Mac(%x…)", h.Mac[:4]) }

// Sign is the component name.
const Sign = "sign"

const idSign byte = 18

func init() {
	layer.Register(Sign, func(cfg layer.Config) layer.State {
		key := cfg.SignKey
		if len(key) == 0 {
			// A stack configured with signing but no key is a
			// misconfiguration the operator must notice immediately.
			panic("layers: sign layer requires Config.SignKey")
		}
		return &signState{view: cfg.View, key: append([]byte(nil), key...)}
	})
	transport.RegisterCodec(transport.HeaderCodec{
		Layer: Sign,
		ID:    idSign,
		Encode: func(h event.Header, w *transport.Writer) {
			mac := h.(signHdr).Mac
			w.Bytes64(mac[:])
		},
		Decode: func(r *transport.Reader) (event.Header, error) {
			b := r.Bytes64()
			if len(b) != sha256.Size {
				return nil, transport.ErrBadWire("sign tag length %d", len(b))
			}
			var h signHdr
			copy(h.Mac[:], b)
			return h, nil
		},
	})
}

func (s *signState) Name() string { return Sign }

// BadMacs reports how many messages failed verification.
func (s *signState) BadMacs() int64 { return s.badMacs }

// mac computes the tag over payload and epoch identity. origin is the
// sender's rank: our own on the way down, the claimed origin on the way
// up.
func (s *signState) mac(payload []byte, kind event.Type, origin int) [sha256.Size]byte {
	m := hmac.New(sha256.New, s.key)
	m.Write(payload)
	var meta [32]byte
	n := copy(meta[:], s.view.Group)
	meta[n] = byte(kind)
	meta[n+1] = byte(origin)
	meta[n+2] = byte(s.view.ID.Seq)
	meta[n+3] = byte(s.view.ID.Coord)
	m.Write(meta[:n+4])
	var out [sha256.Size]byte
	m.Sum(out[:0])
	return out
}

func (s *signState) HandleDn(ev *event.Event, snk layer.Sink) {
	if isData(ev) {
		ev.Msg.Push(signHdr{Mac: s.mac(ev.Msg.Payload, ev.Type, s.view.Rank)})
	}
	snk.PassDn(ev)
}

func (s *signState) HandleUp(ev *event.Event, snk layer.Sink) {
	if !isData(ev) {
		snk.PassUp(ev)
		return
	}
	h, ok := ev.Msg.Pop().(signHdr)
	if !ok {
		s.badMacs++
		event.Free(ev)
		return
	}
	want := s.mac(ev.Msg.Payload, ev.Type, ev.Peer)
	if !hmac.Equal(h.Mac[:], want[:]) {
		s.badMacs++
		event.Free(ev)
		return
	}
	snk.PassUp(ev)
}
