package layers

import (
	"encoding/binary"

	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// HandEngine is the hand-optimized configuration (HAND in §4.2): a
// manually written bypass for the 4-layer stack (top, pt2pt, mnak,
// bottom), created the way the paper describes — the common path through
// the protocol stack and the Transport module integrated into one piece
// of straight-line code with direct access to the layers' state. The
// integration of the transport is what makes HAND about 25% faster than
// the machine-generated code, which bypasses the stack but not the
// transport.
//
// Like the paper's hand bypass, it supports the "assume the next send
// can use the bypass too" optimization: after a message is delivered
// through the bypass, the next send skips the common-case check. The
// assumption is not generally valid (the response might need to be
// fragmented), which is exactly why the technique cannot be substituted
// for the checked bypass in general (§4.2); TrustAfterDeliver gates it.
type HandEngine struct {
	Rank int
	N    int

	// TrustAfterDeliver enables the skip-check optimization.
	TrustAfterDeliver bool

	stk    stack.Stack
	states []layer.State
	// wireIDs are the 4-layer stack's header codec ids: the shape a full
	// wire image must have (transport.UnmarshalFor).
	wireIDs []byte
	top     *topState
	p2p     *pt2ptState
	mnak    *mnakState
	bot     *bottomState

	trustDn bool

	// SendWire transmits a wire image (cast fans out, send to rank dst).
	SendWire func(cast bool, dst int, wire []byte)
	// Deliver hands an application payload up.
	Deliver func(origin int, payload []byte, cast bool)

	// MarkDnTransport and MarkUpStack are optional instrumentation hooks
	// at the stack/transport boundary, for the code-latency benchmarks.
	MarkDnTransport func()
	MarkUpStack     func()

	wbuf transport.Writer

	// wireBuf is the reused build buffer for bypass wire images; a wire
	// handed to SendWire is valid only for the duration of the call.
	wireBuf []byte

	// castImg and sendImg are the images of an empty message under the
	// header stacks the layers above mnak (top, pt2pt:Pass) and above
	// pt2pt (top) contribute on the common path — constants, so the
	// bypass retains a message as one of these with the payload filled
	// in, without building a header.
	castImg, sendImg transport.Image

	// Stats counts routing decisions.
	Stats struct {
		DnBypass, DnFull, UpBypass, UpFull int64
	}
}

// handMagic distinguishes the hand bypass's integrated wire format.
const handMagic = 0xC1

const (
	handKindCast = 0
	handKindSend = 1
)

// NewHandEngine builds the hand-optimized 4-layer configuration. The
// fallback stack runs under the given execution model.
func NewHandEngine(cfg layer.Config, mode stack.Mode) (*HandEngine, error) {
	states, err := stack.BuildStates(Stack4(), cfg)
	if err != nil {
		return nil, err
	}
	h := &HandEngine{
		Rank:    cfg.View.Rank,
		N:       cfg.View.N(),
		states:  states,
		wireIDs: transport.StackIDs(Stack4()),
		top:     states[0].(*topState),
		p2p:     states[1].(*pt2ptState),
		mnak:    states[2].(*mnakState),
		bot:     states[3].(*bottomState),
	}
	h.stk = stack.FromStates(states, mode, stack.Callbacks{App: h.appEvent, Net: h.netEvent})
	h.castImg = h.constImage(topHdr{}, p2pPass{})
	h.sendImg = h.constImage(topHdr{})
	return h, nil
}

// constImage is the image of an application message with no payload
// under the given header stack, in storage of its own.
func (h *HandEngine) constImage(hdrs ...event.Header) transport.Image {
	img := imageOf(&event.Event{ApplMsg: true, Msg: event.Message{Headers: hdrs}}, &h.wbuf)
	img.Hdrs = append([]byte(nil), img.Hdrs...)
	return img
}

// Stack exposes the fallback stack.
func (h *HandEngine) Stack() stack.Stack { return h.stk }

// States exposes the shared layer states.
func (h *HandEngine) States() []layer.State { return h.states }

func (h *HandEngine) appEvent(ev *event.Event) {
	switch ev.Type {
	case event.ECast, event.ESend:
		if ev.ApplMsg && h.Deliver != nil {
			h.Deliver(ev.Peer, ev.Msg.Payload, ev.Type == event.ECast)
		}
	}
}

func (h *HandEngine) netEvent(ev *event.Event) {
	switch ev.Type {
	case event.ECast, event.ESend:
	default:
		return
	}
	if err := transport.Marshal(ev, h.Rank, &h.wbuf); err != nil {
		panic(err)
	}
	if h.SendWire != nil {
		h.SendWire(ev.Type == event.ECast, ev.Peer, h.wbuf.Seal())
	}
}

// Cast multicasts an application payload through the hand bypass when
// the common case holds.
func (h *HandEngine) Cast(payload []byte) {
	if h.trustDn {
		h.trustDn = false
	} else if !h.bot.enabled {
		h.Stats.DnFull++
		h.stk.SubmitDn(event.CastEv(payload))
		return
	}
	h.Stats.DnBypass++
	// Straight-line integrated path: assign the sequence number, build
	// the wire image directly, send, then buffer for retransmission.
	seq := h.mnak.mySeq
	h.mnak.mySeq++
	if h.MarkDnTransport != nil {
		h.MarkDnTransport()
	}
	wire := append(h.wireBuf[:0], handMagic, handKindCast, byte(h.Rank))
	wire = binary.AppendVarint(wire, seq)
	wire = append(wire, payload...)
	h.wireBuf = wire
	if h.SendWire != nil {
		h.SendWire(true, 0, wire)
	}
	img := h.castImg
	img.Payload = payload
	h.mnak.logs[h.Rank].put(&h.mnak.arena, seq, img)
}

// Send transmits an application payload point-to-point through the hand
// bypass when the common case holds.
func (h *HandEngine) Send(dst int, payload []byte) {
	p := &h.p2p.peers[dst]
	if h.trustDn {
		h.trustDn = false
	} else if !h.bot.enabled {
		h.Stats.DnFull++
		h.stk.SubmitDn(event.SendEv(dst, payload))
		return
	}
	h.Stats.DnBypass++
	seq := p.sendSeq
	p.sendSeq++
	ack := p.recvNext
	p.pendingAcks = 0
	if h.MarkDnTransport != nil {
		h.MarkDnTransport()
	}
	wire := append(h.wireBuf[:0], handMagic, handKindSend, byte(h.Rank))
	wire = binary.AppendVarint(wire, seq)
	wire = binary.AppendVarint(wire, ack)
	wire = append(wire, payload...)
	h.wireBuf = wire
	if h.SendWire != nil {
		h.SendWire(false, dst, wire)
	}
	img := h.sendImg
	img.Payload = payload
	p.unacked.put(&h.p2p.arena, seq, img)
}

// Packet routes an arriving wire image and reports whether it decoded,
// as opt.Engine.Packet does: an image that did not — a full image of
// another stack's shape, a hand image cut short, of an unknown kind or
// from an origin outside the view — is dropped for the caller to count.
// The hand engine runs in the in-process harnesses, which recycle data
// once Packet returns, so the events built from it are borrowed.
func (h *HandEngine) Packet(data []byte) bool {
	if len(data) == 0 {
		return false
	}
	if data[0] != handMagic {
		ev, err := transport.UnmarshalFor(data, h.wireIDs)
		if err != nil {
			return false
		}
		if ev.Peer < 0 || ev.Peer >= h.N {
			event.Free(ev)
			return false
		}
		ev.Borrowed = true
		h.Stats.UpFull++
		h.stk.DeliverUp(ev)
		return true
	}
	if len(data) < 3 {
		return false
	}
	kind := data[1]
	origin := int(data[2])
	if (kind != handKindCast && kind != handKindSend) || origin >= h.N {
		return false
	}
	rest := data[3:]
	seq, n := binary.Varint(rest)
	if n <= 0 {
		return false
	}
	rest = rest[n:]
	var ack int64
	if kind == handKindSend {
		ack, n = binary.Varint(rest)
		if n <= 0 {
			return false
		}
		rest = rest[n:]
	}
	payload := rest
	if h.MarkUpStack != nil {
		h.MarkUpStack()
	}

	if kind == handKindCast {
		if h.bot.enabled && seq == h.mnak.recvNext[origin] && h.mnak.ahead[origin] == 0 {
			h.Stats.UpBypass++
			h.mnak.recvNext[origin] = seq + 1
			h.deliverBypass(origin, payload, true)
			// Kept after the delivery, like the send side's buffering.
			img := h.castImg
			img.Payload = payload
			h.mnak.logs[origin].put(&h.mnak.arena, seq, img)
			return true
		}
		h.Stats.UpFull++
		h.uncompressToStack(origin, payload, true, seq, 0)
		return true
	}
	p := &h.p2p.peers[origin]
	if h.bot.enabled && seq == p.recvNext && p.oooLen == 0 && p.pendingAcks+1 < h.p2p.ackThreshold {
		h.Stats.UpBypass++
		h.p2p.applyAck(origin, ack)
		p.recvNext = seq + 1
		p.pendingAcks++
		h.deliverBypass(origin, payload, false)
		return true
	}
	h.Stats.UpFull++
	h.uncompressToStack(origin, payload, false, seq, ack)
	return true
}

func (h *HandEngine) deliverBypass(origin int, payload []byte, cast bool) {
	if h.TrustAfterDeliver {
		h.trustDn = true
	}
	if h.Deliver != nil {
		h.Deliver(origin, payload, cast)
	}
}

// uncompressToStack rebuilds the full header stack for a hand-format
// packet that missed the common case, and hands it to the original
// stack.
func (h *HandEngine) uncompressToStack(origin int, payload []byte, cast bool, seq, ack int64) {
	ev := event.Alloc()
	ev.Dir = event.Up
	ev.Peer = origin
	ev.ApplMsg, ev.Borrowed = true, true
	ev.Msg.Payload = payload
	// Push order top-down into the event's reused header storage.
	if cast {
		ev.Type = event.ECast
		ev.Msg.Headers = append(ev.Msg.Headers[:0], topHdr{}, p2pPass{}, newMnakData(seq), bottomHdr{})
	} else {
		ev.Type = event.ESend
		ev.Msg.Headers = append(ev.Msg.Headers[:0], topHdr{}, newP2pData(seq, ack), mnakPass{}, bottomHdr{})
	}
	h.stk.DeliverUp(ev)
}

// Timer drives the housekeeping sweep through the full stack.
func (h *HandEngine) Timer(now int64) {
	h.stk.DeliverUp(event.TimerEv(now))
}
