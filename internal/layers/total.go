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

	// ordered is what is known of the global numbers from nextGlobal up
	// (orderSlot); pendingN counts its casts that are here and wait for
	// their turn, earlyN the announcements that arrived before their cast.
	ordered          slab[orderSlot]
	pendingN, earlyN int64

	// parked holds, per origin, the casts that arrived before their
	// order: the hold the compiled path parks in and releases from too.
	parked []parkSlab

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

// orderSlot is one global number's cast — origin and local sequence —
// as far as it is known: the event itself once it is here (its header
// popped, owning its payload), or only the announcement.
type orderSlot struct {
	ev     *event.Event
	origin int32
	known  bool
	lseq   int64
}

// totalMaxAhead bounds how far past the first slot of a slab (ordered,
// or an origin's parked casts) a message may land: the slabs are dense,
// and a corrupt or hostile sequence number must not size them (msgLog's
// logMaxAhead).
const totalMaxAhead = 1 << 16

// slab is a dense window of slots from a moving first one: at(i) is the
// i-th from the front, pop drops the front. The backing array is reused
// from its start whenever the window empties, so a slab that drains as
// fast as it fills never allocates.
type slab[T any] struct {
	buf  []T
	head int
}

func (w *slab[T]) width() int64  { return int64(len(w.buf) - w.head) }
func (w *slab[T]) at(i int64) *T { return &w.buf[w.head+int(i)] }

// reach makes slot i exist.
func (w *slab[T]) reach(i int64) {
	var zero T
	for w.width() <= i {
		w.buf = append(w.buf, zero)
	}
}

// pop drops the front slot.
func (w *slab[T]) pop() {
	var zero T
	w.buf[w.head] = zero
	w.head++
	switch {
	case w.head == len(w.buf):
		w.buf, w.head = w.buf[:0], 0
	case w.head >= 32 && 2*w.head >= len(w.buf):
		n := copy(w.buf, w.buf[w.head:])
		clear(w.buf[n:])
		w.buf, w.head = w.buf[:n], 0
	}
}

// parkSlab is one origin's unordered casts from the oldest this member
// has not seen yet, by local sequence number: slot i holds base+i —
// parked until its announcement, or gone (delivered, or held once its
// announcement came first) — and the slots of casts not seen yet are
// empty. The front advances past gone slots, so base is the origin's
// oldest unordered cast not yet seen or still parked; the first run
// slots are all parked.
//
// Stamped casts, the sequencer's, pass by without moving the window: its
// casts are unordered only while it is blocked for a view change, and
// then the membership layer below holds them for the next view.
type parkSlab struct {
	base  int64
	slots slab[parkSlot]
	run   int64
}

type parkSlot struct {
	ev   *event.Event
	gone bool
}

// put parks ev as local sequence number lseq. It reports false, keeping
// nothing, when lseq was seen already or is implausibly far ahead.
func (p *parkSlab) put(lseq int64, ev *event.Event) bool {
	i := lseq - p.base
	if i < 0 || i >= totalMaxAhead {
		return false
	}
	if i < p.slots.width() {
		if sl := p.slots.at(i); sl.ev != nil || sl.gone {
			return false
		}
	}
	p.slots.reach(i)
	p.slots.at(i).ev = ev
	for p.run < p.slots.width() && p.slots.at(p.run).ev != nil {
		p.run++
	}
	return true
}

// seen records that the unordered cast lseq arrived and was not parked.
func (p *parkSlab) seen(lseq int64) {
	i := lseq - p.base
	switch {
	case i == 0 && p.slots.width() == 0:
		p.base++
	case i >= 0 && i < totalMaxAhead:
		p.slots.reach(i)
		if sl := p.slots.at(i); sl.ev == nil {
			sl.gone = true
			p.trim()
		}
	}
}

// remove unparks lseq's cast, nil when it is not parked.
func (p *parkSlab) remove(lseq int64) *event.Event {
	i := lseq - p.base
	if i < 0 || i >= p.slots.width() {
		return nil
	}
	sl := p.slots.at(i)
	ev := sl.ev
	if ev == nil {
		return nil
	}
	*sl = parkSlot{gone: true}
	switch {
	case i == 0 && p.run > 0:
		p.run-- // the rest of the run stays parked
	case i < p.run:
		p.run = i
	}
	p.trim()
	return ev
}

// trim moves the front past the gone slots there and, once the run of
// parked ones has ended, counts the one behind them.
func (p *parkSlab) trim() {
	for p.slots.width() > 0 && p.slots.at(0).gone {
		p.slots.pop()
		p.base++
	}
	if p.run > 0 {
		return
	}
	for p.run < p.slots.width() && p.slots.at(p.run).ev != nil {
		p.run++
	}
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
		return &totalState{view: cfg.View, parked: make([]parkSlab, cfg.View.N())}
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

// handleData processes a cast: one stamped with the next global number
// is delivered at once, with nothing pending ahead of it; a stamped one
// waits for its turn; an unordered one is assigned its number at the
// sequencer, and elsewhere waits for it — the number announced already,
// or parked. The compiled path takes the same decisions through the
// same state (irdef_total.go). A cast that must wait is held as the
// event it is. Its payload is copied only when borrowed — the member's
// own casts reach this layer through local's bounce still aliasing the
// application's buffer; arrival bytes and frag's joins are kept by
// reference.
func (s *totalState) handleData(origin int, lseq, gseq int64, ev *event.Event, snk layer.Sink) {
	if gseq == s.nextGlobal && s.pendingN == 0 {
		s.advance(1)
		snk.PassUp(ev)
		return
	}
	switch {
	case gseq >= 0:
		s.order(gseq, origin, lseq, ev)
	case s.sequencer():
		g := s.gCount
		s.gCount++
		s.order(g, origin, lseq, ev)
		s.assign(origin, lseq, g, snk)
	default:
		if g, ok := s.announced(origin, lseq); ok {
			s.parked[origin].seen(lseq)
			s.order(g, origin, lseq, ev)
		} else {
			s.park(origin, lseq, ev)
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
		origin, lseq, g := int(h.Origin), h.LocalSeq+i, h.GSeq+i
		ev := s.parked[origin].remove(lseq)
		switch {
		case ev == nil:
			s.announce(g, origin, lseq)
		case g == s.nextGlobal:
			// Next in the order: no need to go through the pending set.
			s.advance(1)
			snk.PassUp(ev)
		default:
			s.order(g, origin, lseq, ev)
		}
	}
	s.drain(snk)
}

// slot is global number g's slot of ordered, made to exist; nil when g
// is delivered already or implausibly far ahead.
func (s *totalState) slot(g int64) *orderSlot {
	i := g - s.nextGlobal
	if i < 0 || i >= totalMaxAhead {
		return nil
	}
	s.ordered.reach(i)
	return s.ordered.at(i)
}

// order holds ev, the cast (origin, lseq), as global number g.
func (s *totalState) order(g int64, origin int, lseq int64, ev *event.Event) {
	sl := s.slot(g)
	if sl == nil || sl.ev != nil {
		event.Free(ev)
		return
	}
	if sl.known {
		s.earlyN--
	}
	ev.OwnPayload()
	*sl = orderSlot{ev: ev, origin: int32(origin), known: true, lseq: lseq}
	s.pendingN++
}

// announce remembers that the cast (origin, lseq), not here yet, is
// global number g.
func (s *totalState) announce(g int64, origin int, lseq int64) {
	sl := s.slot(g)
	if sl == nil || sl.known {
		return
	}
	*sl = orderSlot{origin: int32(origin), known: true, lseq: lseq}
	s.earlyN++
}

// announced finds the number announced for the cast (origin, lseq) ahead
// of it.
func (s *totalState) announced(origin int, lseq int64) (int64, bool) {
	for i := int64(0); s.earlyN > 0 && i < s.ordered.width(); i++ {
		if sl := s.ordered.at(i); sl.known && sl.ev == nil && int(sl.origin) == origin && sl.lseq == lseq {
			return s.nextGlobal + i, true
		}
	}
	return 0, false
}

// park holds the unordered cast (origin, lseq) until its announcement.
func (s *totalState) park(origin int, lseq int64, ev *event.Event) bool {
	ev.OwnPayload()
	if !s.parked[origin].put(lseq, ev) {
		event.Free(ev)
		return false
	}
	return true
}

// advance moves nextGlobal on by k, dropping what ordered held for the
// numbers passed — nothing, unless an announcement contradicted another.
func (s *totalState) advance(k int64) {
	for ; k > 0 && s.ordered.width() > 0; k-- {
		sl := s.ordered.at(0)
		switch {
		case sl.ev != nil:
			event.Free(sl.ev)
			s.pendingN--
		case sl.known:
			s.earlyN--
		}
		s.ordered.pop()
		s.nextGlobal++
	}
	s.nextGlobal += k
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
	for s.pendingN > 0 && s.ordered.width() > 0 && s.ordered.at(0).ev != nil {
		sl := s.ordered.at(0)
		ev := sl.ev
		*sl = orderSlot{}
		s.pendingN--
		s.advance(1)
		snk.PassUp(ev)
	}
}
