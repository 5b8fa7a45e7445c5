package layers

import (
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// mnakState implements reliable FIFO multicast using negative
// acknowledgments. Senders number their casts; receivers detect gaps and
// request retransmission point-to-point from the origin. Casts — sent
// and received — are retained until the stability protocol (collect
// layer) reports them delivered everywhere. This is the classic Ensemble
// MNAK component.
type mnakState struct {
	view *event.View

	// mySeq is the sequence number of the next cast this member sends.
	mySeq int64

	// logs[o] retains origin o's casts, from the stability frontier up,
	// as images of what the layers above mnak saw (their headers and the
	// payload). logs[Rank] is this member's own casts, for
	// retransmission. For every other origin the log holds two things in
	// one sequence space: below recvNext[o], the casts already delivered,
	// kept so that any member can serve a retransmission on the origin's
	// behalf; above it, casts that arrived ahead of a gap, waiting for it
	// to fill. Without the kept half virtual synchrony has a hole: a cast
	// whose origin is then partitioned away may have reached some
	// survivors but not others, and only the (now unreachable) origin
	// could repair the difference — the view-change flush would either
	// hang or install a view whose members delivered different casts.
	logs []msgLog

	// recvNext[o] is the next expected sequence number from origin o.
	recvNext []int64

	// ahead[o] counts the casts logs[o] holds above recvNext[o]: zero is
	// the common case in which a delivery has nothing to drain.
	ahead []int

	// naked[o] is the highest sequence number already NAKed to origin o,
	// to avoid duplicate NAKs for the same gap.
	naked []int64

	// blocked is set once a flush (or this member's graceful leave) has
	// stopped the casts above: from then on each sweep announces mySeq
	// (mnakTail), since no later cast will reveal a loss of the last ones.
	blocked bool

	// wbuf encodes the images of events that did not come off the wire.
	wbuf transport.Writer
}

// mnak header variants. mnakData rides every steady-state cast, so it
// is a pooled pointer header (boxing a value header into the Header
// interface would allocate per message); the rare control headers stay
// plain values.
type (
	// mnakData tags a first-transmission cast.
	mnakData struct{ Seqno int64 }
	// mnakPass tags point-to-point traffic passing through untouched.
	mnakPass struct{}
	// mnakNak requests retransmission of origin Origin's casts [Lo,Hi].
	// Usually addressed to the origin itself; during a view-change flush
	// it fans out to every member, any of which may hold kept copies of
	// an unreachable origin's casts.
	mnakNak struct {
		Origin int32
		Lo, Hi int64
	}
	// mnakRetrans carries a retransmitted cast point-to-point to the
	// member that NAKed it. Origin identifies the original sender, which
	// need not be the retransmitting peer.
	mnakRetrans struct {
		Origin int32
		Seqno  int64
	}
	// mnakTail announces the sender's cast count, Seqno being the next
	// sequence number it would use. A blocked member multicasts one
	// unnumbered at every sweep; a receiver short of it NAKs the rest.
	mnakTail struct{ Seqno int64 }
)

var mnakDataPool event.HdrPool[mnakData]

func newMnakData(seq int64) *mnakData {
	h := mnakDataPool.Get()
	h.Seqno = seq
	return h
}

func (*mnakData) Layer() string   { return Mnak }
func (*mnakData) WireID() byte    { return idMnak }
func (mnakPass) Layer() string    { return Mnak }
func (mnakPass) WireID() byte     { return idMnak }
func (mnakNak) Layer() string     { return Mnak }
func (mnakNak) WireID() byte      { return idMnak }
func (mnakRetrans) Layer() string { return Mnak }
func (mnakRetrans) WireID() byte  { return idMnak }
func (mnakTail) Layer() string    { return Mnak }
func (mnakTail) WireID() byte     { return idMnak }

func (h *mnakData) HdrString() string { return fmt.Sprintf("mnak:Data(%d)", h.Seqno) }
func (mnakPass) HdrString() string    { return "mnak:Pass" }
func (h mnakNak) HdrString() string {
	return fmt.Sprintf("mnak:Nak(o=%d,%d,%d)", h.Origin, h.Lo, h.Hi)
}
func (h mnakRetrans) HdrString() string {
	return fmt.Sprintf("mnak:Retrans(o=%d,%d)", h.Origin, h.Seqno)
}
func (h mnakTail) HdrString() string { return fmt.Sprintf("mnak:Tail(%d)", h.Seqno) }

func (h *mnakData) CloneHdr() event.Header { return newMnakData(h.Seqno) }
func (h *mnakData) FreeHdr()               { mnakDataPool.Put(h) }

const (
	mnakTagData byte = iota
	mnakTagPass
	mnakTagNak
	mnakTagRetrans
	mnakTagTail
)

var mnakHdrs = []ir.HdrSpec{
	{Variant: "Data", Tag: int64(mnakTagData), Fields: []string{"seqno"},
		On: onCast, Fate: ir.PassedUp,
		Make: func(f []int64) event.Header { return newMnakData(f[0]) },
		Read: readAs(func(d *mnakData, dst []int64) []int64 { return append(dst, d.Seqno) })},
	bareHdr[mnakPass]("Pass", mnakTagPass, onSend, ir.PassedUp),
	{Variant: "Nak", Tag: int64(mnakTagNak), Fields: []string{"origin", "lo", "hi"},
		On: onSend, Fate: ir.Consumed,
		Make: func(f []int64) event.Header { return mnakNak{Origin: int32(f[0]), Lo: f[1], Hi: f[2]} },
		Read: readAs(func(n mnakNak, dst []int64) []int64 { return append(dst, int64(n.Origin), n.Lo, n.Hi) })},
	{Variant: "Retrans", Tag: int64(mnakTagRetrans), Fields: []string{"origin", "seqno"},
		On: onSend, Fate: ir.PassedUpAsCast,
		Make: func(f []int64) event.Header { return mnakRetrans{Origin: int32(f[0]), Seqno: f[1]} },
		Read: readAs(func(r mnakRetrans, dst []int64) []int64 { return append(dst, int64(r.Origin), r.Seqno) })},
	{Variant: "Tail", Tag: int64(mnakTagTail), Fields: []string{"seqno"},
		On: onCast, Fate: ir.Consumed,
		Make: func(f []int64) event.Header { return mnakTail{Seqno: f[0]} },
		Read: readAs(func(t mnakTail, dst []int64) []int64 { return append(dst, t.Seqno) })},
}

func init() {
	layer.Register(Mnak, func(cfg layer.Config) layer.State {
		n := cfg.View.N()
		s := &mnakState{
			view:     cfg.View,
			logs:     make([]msgLog, n),
			recvNext: make([]int64, n),
			ahead:    make([]int, n),
			naked:    make([]int64, n),
		}
		for i := range s.naked {
			s.naked[i] = -1
		}
		return s
	})
	transport.RegisterCodec(transport.SpecCodec(Mnak, idMnak, mnakHdrs))
}

func (s *mnakState) Name() string { return Mnak }

func (s *mnakState) HandleDn(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast:
		seq := s.mySeq
		s.mySeq++
		// Retained before the mnak header is pushed: a retransmission must
		// reconstruct the message exactly as the layers above handed it
		// to us, including their headers.
		s.logs[s.view.Rank].put(seq, imageOf(ev, &s.wbuf))
		ev.Msg.Push(newMnakData(seq))
		snk.PassDn(ev)
	case event.ESend:
		ev.Msg.Push(mnakPass{})
		snk.PassDn(ev)
	case event.EBlock:
		// View-change flush (membership layer): report our
		// contiguous-receive vector so the coordinator can decide when
		// every surviving member holds the same casts.
		s.blocked = true
		ok := event.Alloc()
		ok.Dir, ok.Type = event.Up, event.EBlockOk
		ok.Stability = append([]int64(nil), s.recvNext...)
		ok.Stability[s.view.Rank] = s.mySeq
		snk.PassUp(ok)
		snk.PassDn(ev)
	case event.EAck:
		// A frontier from the flush protocol: NAK anything some member
		// has seen from an origin that we have not. Unlike data-driven
		// gap detection, this path re-NAKs on every flush round — a lost
		// NAK or retransmission would otherwise never be retried, since
		// no new traffic flows while the group is blocked. The NAK fans
		// out to every member, not just the origin: the origin may be
		// exactly the member being flushed out, and then only survivors'
		// kept copies (logs) can repair the gap.
		for o, have := range ev.Stability {
			if o == s.view.Rank || o >= s.view.N() {
				continue
			}
			if have > s.recvNext[o] {
				if have-1 > s.naked[o] {
					s.naked[o] = have - 1
				}
				for target := 0; target < s.view.N(); target++ {
					if target == s.view.Rank {
						continue
					}
					s.sendNak(o, target, s.recvNext[o], have-1, snk)
				}
			}
		}
		event.Free(ev)
	case event.EStable:
		// Casts delivered everywhere can never be NAKed again: release
		// them. A frontier beyond what this member has itself delivered
		// (or sent) releases nothing it still waits for.
		for o := range s.logs {
			if o >= len(ev.Stability) {
				break
			}
			have := s.recvNext[o]
			if o == s.view.Rank {
				have = s.mySeq
			}
			s.logs[o].trimBelow(min(ev.Stability[o], have))
		}
		snk.PassDn(ev)
	default:
		snk.PassDn(ev)
	}
}

func (s *mnakState) HandleUp(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast:
		switch h := ev.Msg.Pop().(type) {
		case *mnakData:
			seq := h.Seqno
			h.FreeHdr()
			s.deliverCast(ev.Peer, seq, ev, true, snk)
		case mnakTail:
			if o := ev.Peer; o != s.view.Rank && h.Seqno > s.recvNext[o] {
				s.naked[o] = max(s.naked[o], h.Seqno-1)
				s.sendNak(o, o, s.recvNext[o], h.Seqno-1, snk)
			}
			event.Free(ev)
		}
	case event.ETimer:
		if s.blocked && s.mySeq > 0 {
			tail := event.Alloc()
			tail.Dir, tail.Type = event.Dn, event.ECast
			tail.Msg.Push(mnakTail{Seqno: s.mySeq})
			snk.PassDn(tail)
		}
		// Report the contiguous-receive vector upward so the stability
		// protocol (collect layer) can gossip it. Our own slot is our
		// send count: everything we sent, we trivially have.
		ack := event.Alloc()
		ack.Dir, ack.Type = event.Up, event.EAck
		ack.Stability = append([]int64(nil), s.recvNext...)
		ack.Stability[s.view.Rank] = s.mySeq
		snk.PassUp(ack)
		snk.PassUp(ev)
	case event.ESend:
		switch h := ev.Msg.Pop().(type) {
		case mnakPass:
			snk.PassUp(ev)
		case mnakNak:
			s.handleNak(ev.Peer, h, snk)
			event.Free(ev)
		case mnakRetrans:
			// A retransmission is a cast from the original sender — not
			// necessarily the retransmitting peer — carried
			// point-to-point: re-type and deliver under its origin.
			if o := int(h.Origin); o >= 0 && o < s.view.N() {
				// Re-attribute: the upper layers must see the original
				// sender, not the retransmitting peer.
				ev.Type, ev.Peer = event.ECast, o
				s.deliverCast(o, h.Seqno, ev, false, snk)
			} else {
				event.Free(ev)
			}
		}
	default:
		snk.PassUp(ev)
	}
}

// deliverCast applies the in-order delivery rule for a cast (or
// retransmitted cast) with sequence number seq from origin. nak controls
// whether gap detection triggers a NAK (retransmissions never re-NAK, to
// avoid storms when a burst is being repaired). The mnak header is
// already popped: what the log retains is the upper layers' stack.
func (s *mnakState) deliverCast(origin int, seq int64, ev *event.Event, nak bool, snk layer.Sink) {
	next := s.recvNext[origin]
	switch {
	case seq == next:
		// Kept before the delivery PassUp, while the event still holds the
		// upper layers' header stack.
		s.logs[origin].put(seq, imageOf(ev, &s.wbuf))
		s.recvNext[origin] = next + 1
		snk.PassUp(ev)
		s.drain(origin, snk)
	case seq > next:
		if s.logs[origin].put(seq, imageOf(ev, &s.wbuf)) {
			s.ahead[origin]++
		}
		if nak && seq-1 > s.naked[origin] {
			s.naked[origin] = seq - 1
			s.sendNak(origin, origin, next, seq-1, snk)
		}
		event.Free(ev)
	default:
		// Duplicate of an already-delivered cast.
		event.Free(ev)
	}
}

// drain delivers casts that arrived ahead of a gap and have become
// in-order. They stay in the log: delivered, they are the kept copies.
func (s *mnakState) drain(origin int, snk layer.Sink) {
	for s.ahead[origin] > 0 {
		next := s.recvNext[origin]
		img, ok := s.logs[origin].get(next)
		if !ok {
			return
		}
		s.ahead[origin]--
		s.recvNext[origin] = next + 1
		out := event.Alloc()
		out.Dir, out.Type, out.Peer = event.Up, event.ECast, origin
		fromImage(img, out)
		snk.PassUp(out)
	}
}

// sendNak emits a point-to-point retransmission request for origin's
// casts [lo,hi] to target (usually the origin itself; during a flush,
// any member holding kept copies).
func (s *mnakState) sendNak(origin, target int, lo, hi int64, snk layer.Sink) {
	nak := event.Alloc()
	nak.Dir, nak.Type, nak.Peer = event.Dn, event.ESend, target
	nak.Msg.Push(mnakNak{Origin: int32(origin), Lo: lo, Hi: hi})
	snk.PassDn(nak)
}

// handleNak retransmits the requested range point-to-point to the
// requester: our own casts, or — on another origin's behalf — those of
// its casts we have delivered (not ones still waiting behind a gap of
// our own). Sequence numbers already released by stability are silently
// skipped: stability proves the requester cannot still need them (the
// NAK was stale).
func (s *mnakState) handleNak(requester int, h mnakNak, snk layer.Sink) {
	origin := int(h.Origin)
	if origin < 0 || origin >= s.view.N() {
		return
	}
	log := &s.logs[origin]
	lo, hi := log.span()
	if origin != s.view.Rank {
		hi = min(hi, s.recvNext[origin])
	}
	for q := max(lo, h.Lo); q < hi && q <= h.Hi; q++ {
		img, ok := log.get(q)
		if !ok {
			continue
		}
		rt := event.Alloc()
		rt.Dir, rt.Type, rt.Peer = event.Dn, event.ESend, requester
		fromImage(img, rt)
		rt.Msg.Push(mnakRetrans{Origin: h.Origin, Seqno: q})
		snk.PassDn(rt)
	}
}
