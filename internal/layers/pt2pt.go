package layers

import (
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// pt2ptState implements reliable FIFO point-to-point delivery with a
// sliding window: positive acknowledgments (piggybacked on reverse data
// traffic when possible, explicit otherwise) and timer-driven
// retransmission of unacknowledged messages.
type pt2ptState struct {
	view *event.View

	peers []pt2ptPeer
	// arena stores the records of every peer's unacked and ooo logs.
	arena logArena

	// ackThreshold is how many deliveries may accumulate before an
	// explicit acknowledgment is forced.
	ackThreshold int

	// wbuf encodes the images of events that did not come off the wire.
	wbuf transport.Writer
}

type pt2ptPeer struct {
	// sendSeq numbers the next message to this peer.
	sendSeq int64
	// unacked retains sent messages, as images of what the layers above
	// handed down, until acknowledged: [highest ack seen, sendSeq).
	unacked msgLog
	// recvNext is the next in-order sequence number expected.
	recvNext int64
	// ooo holds the messages received ahead of recvNext, oooLen of them.
	ooo    msgLog
	oooLen int
	// pendingAcks counts deliveries not yet acknowledged.
	pendingAcks int
}

// pt2pt header variants.
type (
	// p2pData tags a first transmission; Ack piggybacks the receive
	// window position for the reverse direction.
	p2pData struct{ Seqno, Ack int64 }
	// p2pRetrans tags a timer-driven retransmission.
	p2pRetrans struct{ Seqno, Ack int64 }
	// p2pAck is an explicit acknowledgment carrying no payload.
	p2pAck struct{ Ack int64 }
	// p2pPass tags multicast traffic passing through untouched.
	p2pPass struct{}
)

var p2pDataPool event.HdrPool[p2pData]

func newP2pData(seq, ack int64) *p2pData {
	h := p2pDataPool.Get()
	h.Seqno, h.Ack = seq, ack
	return h
}

func (*p2pData) Layer() string   { return Pt2pt }
func (*p2pData) WireID() byte    { return idPt2pt }
func (p2pRetrans) Layer() string { return Pt2pt }
func (p2pRetrans) WireID() byte  { return idPt2pt }
func (p2pAck) Layer() string     { return Pt2pt }
func (p2pAck) WireID() byte      { return idPt2pt }
func (p2pPass) Layer() string    { return Pt2pt }
func (p2pPass) WireID() byte     { return idPt2pt }

func (h *p2pData) HdrString() string { return fmt.Sprintf("pt2pt:Data(%d,ack=%d)", h.Seqno, h.Ack) }
func (h p2pRetrans) HdrString() string {
	return fmt.Sprintf("pt2pt:Retrans(%d,ack=%d)", h.Seqno, h.Ack)
}
func (h p2pAck) HdrString() string { return fmt.Sprintf("pt2pt:Ack(%d)", h.Ack) }
func (p2pPass) HdrString() string  { return "pt2pt:Pass" }

func (h *p2pData) CloneHdr() event.Header { return newP2pData(h.Seqno, h.Ack) }
func (h *p2pData) FreeHdr()               { p2pDataPool.Put(h) }

const (
	p2pTagData byte = iota
	p2pTagRetrans
	p2pTagAck
	p2pTagPass
)

var pt2ptHdrs = []ir.HdrSpec{
	{Variant: "Data", Tag: int64(p2pTagData), Fields: []string{"seqno", "ack"},
		On: onSend, Fate: ir.PassedUp,
		Make: func(f []int64) event.Header { return newP2pData(f[0], f[1]) },
		Read: readAs(func(d *p2pData, dst []int64) []int64 { return append(dst, d.Seqno, d.Ack) })},
	{Variant: "Retrans", Tag: int64(p2pTagRetrans), Fields: []string{"seqno", "ack"},
		On: onSend, Fate: ir.PassedUp,
		Make: func(f []int64) event.Header { return p2pRetrans{Seqno: f[0], Ack: f[1]} },
		Read: readAs(func(d p2pRetrans, dst []int64) []int64 { return append(dst, d.Seqno, d.Ack) })},
	{Variant: "Ack", Tag: int64(p2pTagAck), Fields: []string{"ack"},
		On: onSend, Fate: ir.Consumed,
		Make: func(f []int64) event.Header { return p2pAck{Ack: f[0]} },
		Read: readAs(func(a p2pAck, dst []int64) []int64 { return append(dst, a.Ack) })},
	bareHdr[p2pPass]("Pass", p2pTagPass, onCast, ir.PassedUp),
}

func init() {
	layer.Register(Pt2pt, func(cfg layer.Config) layer.State {
		return &pt2ptState{
			view:         cfg.View,
			peers:        make([]pt2ptPeer, cfg.View.N()),
			ackThreshold: 4,
		}
	})
	transport.RegisterCodec(transport.SpecCodec(Pt2pt, idPt2pt, pt2ptHdrs))
}

func (s *pt2ptState) Name() string { return Pt2pt }

// Retained reports the messages the logs hold and the bytes they take.
func (s *pt2ptState) Retained() (msgs, bytes int64) { return s.arena.msgs, s.arena.bytes }

func (s *pt2ptState) HandleDn(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ESend:
		p := &s.peers[ev.Peer]
		seq := p.sendSeq
		p.sendSeq++
		p.unacked.put(&s.arena, seq, imageOf(ev, &s.wbuf))
		p.pendingAcks = 0 // the piggybacked ack covers everything pending
		ev.Msg.Push(newP2pData(seq, p.recvNext))
		snk.PassDn(ev)
	case event.ECast:
		ev.Msg.Push(p2pPass{})
		snk.PassDn(ev)
	default:
		snk.PassDn(ev)
	}
}

func (s *pt2ptState) HandleUp(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast:
		ev.Msg.Pop()
		snk.PassUp(ev)
	case event.ESend:
		from := ev.Peer
		switch h := ev.Msg.Pop().(type) {
		case *p2pData:
			seq, ack := h.Seqno, h.Ack
			h.FreeHdr()
			s.applyAck(from, ack)
			s.deliver(from, seq, ev, snk)
		case p2pRetrans:
			s.applyAck(from, h.Ack)
			s.deliver(from, h.Seqno, ev, snk)
		case p2pAck:
			s.applyAck(from, h.Ack)
			event.Free(ev)
		}
	case event.ETimer:
		s.sweep(snk)
		snk.PassUp(ev)
	default:
		snk.PassUp(ev)
	}
}

// applyAck discards retransmission buffers covered by an acknowledgment:
// ack acknowledges every sequence number below it.
func (s *pt2ptState) applyAck(peer int, ack int64) {
	p := &s.peers[peer]
	// An acknowledgment of something never sent releases nothing beyond
	// what was: sequence numbers still to come must stay puttable.
	p.unacked.trimBelow(&s.arena, min(ack, p.sendSeq))
}

// deliver applies the in-order rule for a point-to-point message.
func (s *pt2ptState) deliver(from int, seq int64, ev *event.Event, snk layer.Sink) {
	p := &s.peers[from]
	switch {
	case seq == p.recvNext:
		p.recvNext++
		p.pendingAcks++
		snk.PassUp(ev)
		for p.oooLen > 0 {
			img, ok := p.ooo.get(&s.arena, p.recvNext)
			if !ok {
				break
			}
			p.oooLen--
			p.recvNext++
			p.pendingAcks++
			out := event.Alloc()
			out.Dir, out.Type, out.Peer = event.Up, event.ESend, from
			fromImage(img, out)
			snk.PassUp(out)
		}
		p.ooo.trimBelow(&s.arena, p.recvNext)
		if p.pendingAcks >= s.ackThreshold {
			s.sendAck(from, snk)
		}
	case seq > p.recvNext:
		// In-order deliveries through the bypass never touch ooo: bring
		// its base up first, so "ahead" is measured from here.
		p.ooo.trimBelow(&s.arena, p.recvNext)
		if p.ooo.put(&s.arena, seq, imageOf(ev, &s.wbuf)) {
			p.oooLen++
		}
		event.Free(ev)
	default:
		// Duplicate: the sender had not yet seen our ack. Re-ack so it
		// stops retransmitting.
		s.sendAck(from, snk)
		event.Free(ev)
	}
}

func (s *pt2ptState) sendAck(peer int, snk layer.Sink) {
	p := &s.peers[peer]
	p.pendingAcks = 0
	ack := event.Alloc()
	ack.Dir, ack.Type, ack.Peer = event.Dn, event.ESend, peer
	ack.Msg.Push(p2pAck{Ack: p.recvNext})
	snk.PassDn(ack)
}

// sweep retransmits every unacknowledged message, in ascending sequence
// order, and flushes pending acknowledgments. Driven by the housekeeping
// timer. Because the whole burst for a peer is emitted consecutively
// within one timer entry, the member's wire batcher coalesces it into a
// single frame per peer per sweep (core/batch_test.go asserts exactly
// that).
func (s *pt2ptState) sweep(snk layer.Sink) {
	for peer := range s.peers {
		p := &s.peers[peer]
		for seq, hi := p.unacked.span(); seq < hi; seq++ {
			img, ok := p.unacked.get(&s.arena, seq)
			if !ok {
				continue
			}
			rt := event.Alloc()
			rt.Dir, rt.Type, rt.Peer = event.Dn, event.ESend, peer
			fromImage(img, rt)
			rt.Msg.Push(p2pRetrans{Seqno: seq, Ack: p.recvNext})
			snk.PassDn(rt)
		}
		if p.pendingAcks > 0 {
			s.sendAck(peer, snk)
		}
	}
}
