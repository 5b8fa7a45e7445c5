package stack

import (
	"ensemble/internal/event"
	"ensemble/internal/layer"
)

// recStack is FUNC as the paper states it and as this package ran it
// until the composition moved to build time: nested comp{p, q} values,
// four mutually recursive methods that each return the merged up and
// down lists. It is kept only as the oracle of TestFuncMatchesRecursion
// — funcStack must invoke the same handlers in the same order and route
// the same exits in the same order.

// proto is a protocol in the functional model: applying an event yields
// the lists of up- and down-going output events.
type proto interface {
	Up(ev *event.Event) (ups, dns []*event.Event)
	Dn(ev *event.Event) (ups, dns []*event.Event)
}

// recLayer adapts one layer state to the functional interface.
type recLayer struct {
	st layer.State
	fs *recStack
}

// collector gathers handler emissions. Collectors live in the stack's
// arena and are recycled wholesale when the outermost application of the
// composition returns (an epoch reset).
type collector struct {
	ups, dns []*event.Event
}

func (c *collector) PassUp(ev *event.Event) { c.ups = append(c.ups, ev) }
func (c *collector) PassDn(ev *event.Event) { c.dns = append(c.dns, ev) }

func (l recLayer) Up(ev *event.Event) ([]*event.Event, []*event.Event) {
	c := l.fs.getCollector()
	l.st.HandleUp(ev, c)
	return c.ups, c.dns
}

func (l recLayer) Dn(ev *event.Event) ([]*event.Event, []*event.Event) {
	c := l.fs.getCollector()
	l.st.HandleDn(ev, c)
	return c.ups, c.dns
}

// comp is the composition of p stacked on top of q.
type comp struct {
	p, q proto
}

// mergeEvs accumulates child output into a merge list. When the list is
// still empty it aliases the child's slice instead of copying — on the
// common linear path (one output per boundary) every merge is an alias
// and the composition allocates nothing.
func mergeEvs(dst, src []*event.Event) []*event.Event {
	if dst == nil {
		return src
	}
	return append(dst, src...)
}

func (c comp) Dn(ev *event.Event) (ups, dns []*event.Event) {
	pu, pd := c.p.Dn(ev)
	ups = pu
	for _, d := range pd {
		du, dd := c.dnIntoLower(d)
		ups = mergeEvs(ups, du)
		dns = mergeEvs(dns, dd)
	}
	return ups, dns
}

func (c comp) Up(ev *event.Event) (ups, dns []*event.Event) {
	qu, qd := c.q.Up(ev)
	dns = qd
	for _, u := range qu {
		uu, ud := c.upIntoUpper(u)
		ups = mergeEvs(ups, uu)
		dns = mergeEvs(dns, ud)
	}
	return ups, dns
}

// dnIntoLower applies a down event to q and recursively feeds q's up
// events back into p.
func (c comp) dnIntoLower(d *event.Event) (ups, dns []*event.Event) {
	qu, qd := c.q.Dn(d)
	dns = qd
	for _, u := range qu {
		uu, ud := c.upIntoUpper(u)
		ups = mergeEvs(ups, uu)
		dns = mergeEvs(dns, ud)
	}
	return ups, dns
}

// upIntoUpper applies an up event to p and recursively feeds p's down
// events back into q.
func (c comp) upIntoUpper(u *event.Event) (ups, dns []*event.Event) {
	pu, pd := c.p.Up(u)
	ups = pu
	for _, d := range pd {
		du, dd := c.dnIntoLower(d)
		ups = mergeEvs(ups, du)
		dns = mergeEvs(dns, dd)
	}
	return ups, dns
}

type recStack struct {
	states []layer.State
	top    proto
	cb     Callbacks

	// arena recycles collectors: handed out in order during an
	// application of the composition, reclaimed all at once when the
	// outermost application returns. depth tracks re-entrant
	// applications (a callback submitting a response) so the reset only
	// happens when no collector slice can still be referenced.
	arena []*collector
	used  int
	depth int
}

func newRecStack(states []layer.State, cb Callbacks) *recStack {
	s := &recStack{states: states, cb: cb}
	// Fold the layers top-first: ((L0 over L1) over L2) ...
	var p proto = recLayer{st: states[0], fs: s}
	for _, st := range states[1:] {
		p = comp{p: p, q: recLayer{st: st, fs: s}}
	}
	s.top = p
	return s
}

func (s *recStack) getCollector() *collector {
	if s.used == len(s.arena) {
		s.arena = append(s.arena, &collector{
			ups: make([]*event.Event, 0, 4),
			dns: make([]*event.Event, 0, 4),
		})
	}
	c := s.arena[s.used]
	s.used++
	// Clear up to capacity: parent merges may have written event
	// pointers past the recorded length.
	c.ups = c.ups[:cap(c.ups)]
	for i := range c.ups {
		c.ups[i] = nil
	}
	c.ups = c.ups[:0]
	c.dns = c.dns[:cap(c.dns)]
	for i := range c.dns {
		c.dns[i] = nil
	}
	c.dns = c.dns[:0]
	return c
}

func (s *recStack) States() []layer.State { return s.states }

func (s *recStack) SubmitDn(ev *event.Event) {
	s.depth++
	ups, dns := s.top.Dn(ev)
	s.route(ups, dns)
	if s.depth--; s.depth == 0 {
		s.used = 0
	}
}

func (s *recStack) DeliverUp(ev *event.Event) {
	s.depth++
	ups, dns := s.top.Up(ev)
	s.route(ups, dns)
	if s.depth--; s.depth == 0 {
		s.used = 0
	}
}

func (s *recStack) route(ups, dns []*event.Event) {
	for _, u := range ups {
		s.cb.app(u)
	}
	for _, d := range dns {
		s.cb.net(d)
	}
}
