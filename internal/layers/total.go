package layers

import (
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// totalState implements sequencer-based total ordering of multicasts on
// top of the FIFO reliable multicast provided by the layers below. The
// view coordinator is the sequencer: its own casts are stamped with a
// global sequence number at send time; other members' casts are assigned
// a number when they reach the coordinator, which multicasts the
// assignment. Every member delivers strictly in global-sequence order,
// so all members deliver all casts in the same order — the property whose
// manual proof located a subtle bug in Ensemble's implementation
// (paper §3.1, [11]).
type totalState struct {
	view *event.View

	// myLocalSeq numbers this member's own casts.
	myLocalSeq int64

	// nextGlobal is the next global sequence number to deliver.
	nextGlobal int64

	// gCount is the next global number to assign (coordinator only).
	gCount int64

	// pending holds ordered-but-not-yet-deliverable casts by global
	// sequence number: the events themselves, total's header popped, each
	// owning its payload (event.Event.OwnPayload).
	pending map[int64]*event.Event

	// unordered holds casts waiting for an order announcement, keyed by
	// (origin, local sequence).
	unordered map[totalKey]*event.Event

	// earlyOrders holds order announcements that arrived before their
	// cast.
	earlyOrders map[totalKey]int64

	// blocked is set when a view-change flush begins (EBlock passing
	// up). A blocked sequencer must not stamp its casts: the membership
	// layer below will queue them for the next view, and a consumed
	// global sequence number whose message never leaves would stall
	// every other member's delivery for the rest of the view.
	blocked bool
}

type totalKey struct {
	origin int
	lseq   int64
}

// total header variants.
type (
	// totalData tags an application cast. GSeq >= 0 iff the sender was
	// the sequencer and self-assigned the order at send time.
	totalData struct {
		LocalSeq int64
		GSeq     int64
	}
	// totalOrder announces that the cast (Origin, LocalSeq) has global
	// sequence number GSeq. Multicast by the sequencer.
	totalOrder struct {
		Origin   int32
		LocalSeq int64
		GSeq     int64
	}
	// totalPass tags point-to-point traffic passing through.
	totalPass struct{}
)

var totalDataPool event.HdrPool[totalData]

func newTotalData(lseq, gseq int64) *totalData {
	h := totalDataPool.Get()
	h.LocalSeq, h.GSeq = lseq, gseq
	return h
}

func (*totalData) Layer() string { return Total }
func (*totalData) WireID() byte  { return idTotal }
func (totalOrder) Layer() string { return Total }
func (totalOrder) WireID() byte  { return idTotal }
func (totalPass) Layer() string  { return Total }
func (totalPass) WireID() byte   { return idTotal }

func (h *totalData) HdrString() string {
	return fmt.Sprintf("total:Data(%d,g=%d)", h.LocalSeq, h.GSeq)
}

func (h *totalData) CloneHdr() event.Header { return newTotalData(h.LocalSeq, h.GSeq) }
func (h *totalData) FreeHdr()               { totalDataPool.Put(h) }
func (h totalOrder) HdrString() string {
	return fmt.Sprintf("total:Order(%d,%d->g=%d)", h.Origin, h.LocalSeq, h.GSeq)
}
func (totalPass) HdrString() string { return "total:Pass" }

const (
	totalTagData byte = iota
	totalTagOrder
	totalTagPass
)

var totalHdrs = []ir.HdrSpec{
	{Variant: "Data", Tag: int64(totalTagData), Fields: []string{"lseq", "gseq"},
		On: onCast, Fate: ir.PassedUp,
		Make: func(f []int64) event.Header { return newTotalData(f[0], f[1]) },
		Read: readAs(func(d *totalData, dst []int64) []int64 { return append(dst, d.LocalSeq, d.GSeq) })},
	{Variant: "Order", Tag: int64(totalTagOrder), Fields: []string{"origin", "lseq", "gseq"},
		On: onCast, Fate: ir.Consumed,
		Make: func(f []int64) event.Header { return totalOrder{Origin: int32(f[0]), LocalSeq: f[1], GSeq: f[2]} },
		Read: readAs(func(o totalOrder, dst []int64) []int64 { return append(dst, int64(o.Origin), o.LocalSeq, o.GSeq) })},
	bareHdr[totalPass]("Pass", totalTagPass, onSend, ir.PassedUp),
}

func init() {
	layer.Register(Total, func(cfg layer.Config) layer.State {
		return &totalState{
			view:        cfg.View,
			pending:     make(map[int64]*event.Event),
			unordered:   make(map[totalKey]*event.Event),
			earlyOrders: make(map[totalKey]int64),
		}
	})
	transport.RegisterCodec(transport.SpecCodec(Total, idTotal, totalHdrs))
}

func (s *totalState) Name() string { return Total }

func (s *totalState) sequencer() bool { return s.view.Rank == 0 }

func (s *totalState) HandleDn(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast:
		lseq := s.myLocalSeq
		s.myLocalSeq++
		g := int64(-1)
		if s.sequencer() && !s.blocked {
			g = s.gCount
			s.gCount++
		}
		ev.Msg.Push(newTotalData(lseq, g))
		snk.PassDn(ev)
	case event.ESend:
		ev.Msg.Push(totalPass{})
		snk.PassDn(ev)
	default:
		snk.PassDn(ev)
	}
}

func (s *totalState) HandleUp(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast:
		switch h := ev.Msg.Pop().(type) {
		case *totalData:
			lseq, gseq := h.LocalSeq, h.GSeq
			h.FreeHdr()
			s.handleData(ev.Peer, lseq, gseq, ev, snk)
		case totalOrder:
			s.handleOrder(h, snk)
			event.Free(ev)
		}
	case event.ESend:
		ev.Msg.Pop()
		snk.PassUp(ev)
	case event.EBlock:
		s.blocked = true
		snk.PassUp(ev)
	default:
		snk.PassUp(ev)
	}
}

// handleData processes a cast: self-ordered casts go straight to the
// pending set; unordered casts wait for (or are assigned) an order.
//
// The steady-state fast path delivers in place: a cast stamped with
// exactly the next global sequence number, with nothing pending, needs
// no buffering — this is the same common-case predicate the optimizer
// compiles (irdef_total.go upCCP), and it keeps the hot path free of
// buffering. A cast that must wait is held as the event it is. Its
// payload is copied only when borrowed — the member's own casts reach
// this layer through local's bounce still aliasing the application's
// buffer; arrival bytes and frag's joins are kept by reference.
func (s *totalState) handleData(origin int, lseq, gseq int64, ev *event.Event, snk layer.Sink) {
	if gseq == s.nextGlobal && len(s.pending) == 0 {
		s.nextGlobal++
		snk.PassUp(ev)
		return
	}
	ev.OwnPayload()
	switch {
	case gseq >= 0:
		s.pending[gseq] = ev
	case s.sequencer():
		g := s.gCount
		s.gCount++
		s.pending[g] = ev
		s.announce(origin, lseq, g, snk)
	default:
		key := totalKey{origin: origin, lseq: lseq}
		if g, ok := s.earlyOrders[key]; ok {
			delete(s.earlyOrders, key)
			s.pending[g] = ev
		} else {
			s.unordered[key] = ev
		}
	}
	s.drain(snk)
}

// handleOrder processes a sequencer announcement.
func (s *totalState) handleOrder(h totalOrder, snk layer.Sink) {
	if s.sequencer() {
		// Our own announcement, reflected by the local layer: the cast
		// it references was ordered when we assigned the number.
		return
	}
	key := totalKey{origin: int(h.Origin), lseq: h.LocalSeq}
	if p, ok := s.unordered[key]; ok {
		delete(s.unordered, key)
		if h.GSeq == s.nextGlobal {
			// Next in the order: no need to go through the pending set.
			s.nextGlobal++
			snk.PassUp(p)
		} else {
			s.pending[h.GSeq] = p
		}
		s.drain(snk)
		return
	}
	s.earlyOrders[key] = h.GSeq
}

// announce multicasts an order assignment.
func (s *totalState) announce(origin int, lseq, g int64, snk layer.Sink) {
	ord := event.Alloc()
	ord.Dir, ord.Type = event.Dn, event.ECast
	ord.Msg.Push(totalOrder{Origin: int32(origin), LocalSeq: lseq, GSeq: g})
	snk.PassDn(ord)
}

// drain delivers pending casts in global order.
func (s *totalState) drain(snk layer.Sink) {
	for {
		p, ok := s.pending[s.nextGlobal]
		if !ok {
			return
		}
		delete(s.pending, s.nextGlobal)
		s.nextGlobal++
		snk.PassUp(p)
	}
}
