package layers

import (
	"fmt"
	"math"

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
//
// The sequencer announces runs, not single casts: consecutive
// assignments to one origin (lseq, lseq+1, … numbered g, g+1, …) travel
// as one Order with a count. A run closes when the next assignment does
// not continue it, before the sequencer stamps its own cast, on EBlock,
// at the end of the member's input burst (EBurstEnd), at the sweep
// timer as a backstop, and at maxRun casts. Where origins interleave
// this is one Order per cast, as before.
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

	// run is the sequencer's open order run, assigned but not yet
	// announced (Count == 0: none open).
	run totalOrder

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
	// totalOrder announces that the Count casts (Origin, LocalSeq+i)
	// have global sequence numbers GSeq+i. Multicast by the sequencer.
	totalOrder struct {
		Origin   int32
		LocalSeq int64
		GSeq     int64
		Count    int64
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
	return fmt.Sprintf("total:Order(%d,%d->g=%d,n=%d)", h.Origin, h.LocalSeq, h.GSeq, h.Count)
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
	{Variant: "Order", Tag: int64(totalTagOrder), Fields: []string{"origin", "lseq", "gseq", "count"},
		On: onCast, Fate: ir.Consumed,
		Make: func(f []int64) event.Header {
			return totalOrder{Origin: int32(f[0]), LocalSeq: f[1], GSeq: f[2], Count: f[3]}
		},
		Read: readAs(func(o totalOrder, dst []int64) []int64 {
			return append(dst, int64(o.Origin), o.LocalSeq, o.GSeq, o.Count)
		})},
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

// maxRun bounds an order run: the sequencer closes a run at this many
// casts, so a receiver drops any longer one without looking at it.
const maxRun = 256

func (s *totalState) HandleDn(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast:
		lseq := s.myLocalSeq
		s.myLocalSeq++
		g := int64(-1)
		if s.sequencer() && !s.blocked {
			// The open run's numbers precede this one: announce them
			// first, so receivers can deliver the stamped cast on arrival.
			s.closeRun(snk)
			g = s.gCount
			s.gCount++
		}
		ev.Msg.Push(newTotalData(lseq, g))
		snk.PassDn(ev)
	case event.ESend:
		ev.Msg.Push(totalPass{})
		snk.PassDn(ev)
	case event.EBurstEnd:
		s.closeRun(snk)
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
		s.closeRun(snk)
		snk.PassUp(ev)
	case event.ETimer:
		// A backstop: every burst ends in an EBurstEnd, but a harness
		// driving the stack directly may never send one.
		s.closeRun(snk)
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
		s.assign(origin, lseq, g, snk)
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

// handleOrder processes a sequencer announcement: each cast of the run
// is delivered, held for its turn, or — not here yet — remembered.
func (s *totalState) handleOrder(h totalOrder, snk layer.Sink) {
	if s.sequencer() {
		// Our own announcement, reflected by the local layer: the casts
		// it references were ordered when we assigned the numbers.
		return
	}
	if !s.validRun(h) {
		return
	}
	for i := range h.Count {
		key := totalKey{origin: int(h.Origin), lseq: h.LocalSeq + i}
		g := h.GSeq + i
		p, ok := s.unordered[key]
		switch {
		case !ok:
			s.earlyOrders[key] = g
		case g == s.nextGlobal:
			// Next in the order: no need to go through the pending set.
			delete(s.unordered, key)
			s.nextGlobal++
			snk.PassUp(p)
		default:
			delete(s.unordered, key)
			s.pending[g] = p
		}
	}
	s.drain(snk)
}

// validRun reports whether an announcement is one the sequencer can
// have sent: a run of 1..maxRun casts of a member of the view, numbered
// from a global number not yet delivered. Anything else is dropped
// before its count is looked at.
func (s *totalState) validRun(h totalOrder) bool {
	return h.Count > 0 && h.Count <= maxRun &&
		h.Origin >= 0 && int(h.Origin) < s.view.N() &&
		h.LocalSeq >= 0 && h.LocalSeq <= math.MaxInt64-maxRun &&
		h.GSeq >= s.nextGlobal && h.GSeq <= math.MaxInt64-maxRun
}

// assign records the sequencer's assignment of global number g to the
// cast (origin, lseq): it extends the open run when it continues it,
// and otherwise closes that run and opens a new one.
func (s *totalState) assign(origin int, lseq, g int64, snk layer.Sink) {
	r := &s.run
	if r.Count > 0 && r.Count < maxRun && int(r.Origin) == origin &&
		r.LocalSeq+r.Count == lseq && r.GSeq+r.Count == g {
		r.Count++
		return
	}
	s.closeRun(snk)
	s.run = totalOrder{Origin: int32(origin), LocalSeq: lseq, GSeq: g, Count: 1}
}

// closeRun multicasts the open run's announcement, if one is open.
func (s *totalState) closeRun(snk layer.Sink) {
	if s.run.Count == 0 {
		return
	}
	ord := event.Alloc()
	ord.Dir, ord.Type = event.Dn, event.ECast
	ord.Msg.Push(s.run)
	s.run = totalOrder{}
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
