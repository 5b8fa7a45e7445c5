package stack

import (
	"ensemble/internal/event"
	"ensemble/internal/layer"
)

// funcStack is the functional execution model (paper §4.2, version 2):
// no centralized event scheduler. When two protocols are stacked, p on
// top of q, the result is a new protocol: down events are applied to p;
// the down events that come out of p are applied to q, and the up events
// that come out of q are applied back to p, recursively. The up events
// out of p and the down events out of q merge to form the output.
//
// The paper pays for that composition on every event; here it is paid
// once, in newFuncStack. Write P(k) for layers 0..k composed. Everything
// P(k) emits upward leaves the stack through layer 0, and everything it
// emits downward was passed down by layer k, each in the order the
// handlers emitted it. So one pair of lists per layer holds every
// intermediate result of the recursion, and a traversal by layer index
// keeps its order contract exactly:
//
//   - the ups out of a layer are applied to the sub-stack above it
//     eagerly and depth-first, as soon as the handler returns;
//   - the downs out of a sub-stack are applied to the layer below it in
//     emission order, only after the application that produced them
//     returns;
//   - what exits the top and the bottom is routed when the outermost
//     application ends, the application's events before the network's.
//
// Every consumer takes a mark (the list's length) before it runs the
// producer, walks the entries above the mark by index and truncates back
// to the mark: a nested application — another handler of the same layer
// further down the recursion, or a callback re-entering SubmitDn during
// route — appends above the mark and cleans up after itself. Truncation
// leaves freed event pointers in the backing arrays; nothing reads past
// a list's length.
type funcStack struct {
	states []layer.State
	// out[k] holds what layer k emitted and nobody consumed yet.
	// out[0].ups is the application's exit list, out[n-1].dns the
	// network's.
	out []emitted
	cb  Callbacks
}

// emitted is layer k's sink. A pointer to it converts to layer.Sink
// without allocating.
type emitted struct {
	ups, dns []*event.Event
}

func (o *emitted) PassUp(ev *event.Event) { o.ups = append(o.ups, ev) }
func (o *emitted) PassDn(ev *event.Event) { o.dns = append(o.dns, ev) }

func newFuncStack(states []layer.State, cb Callbacks) *funcStack {
	return &funcStack{states: states, out: make([]emitted, len(states)), cb: cb}
}

func (s *funcStack) States() []layer.State { return s.states }

// dnsInto applies the downs P(k-1) emitted above mark to layer k, and
// what each sends back up to P(k-1) again.
func (s *funcStack) dnsInto(k int, above *emitted, mark int) {
	o := &s.out[k]
	for i, end := mark, len(above.dns); i < end; i++ {
		m := len(o.ups)
		s.states[k].HandleDn(above.dns[i], o)
		if len(o.ups) > m {
			s.upsInto(k, o, m)
		}
	}
	above.dns = above.dns[:mark]
}

// upsInto applies the ups layer k emitted above mark to P(k-1) — to
// layer k-1, then that layer's ups to P(k-2) — and what each sends back
// down to layer k again.
func (s *funcStack) upsInto(k int, o *emitted, mark int) {
	above := &s.out[k-1]
	for i, end := mark, len(o.ups); i < end; i++ {
		m, um := len(above.dns), len(above.ups)
		s.states[k-1].HandleUp(o.ups[i], above)
		if k > 1 && len(above.ups) > um {
			s.upsInto(k-1, above, um)
		}
		if len(above.dns) > m {
			s.dnsInto(k, above, m)
		}
	}
	o.ups = o.ups[:mark]
}

// SubmitDn applies a down event to P(n-1): to layer 0, then level by
// level what came down out of P(k-1) to layer k. Only layers 0..k run
// before level k+1 starts, and none of them appends to layer k+1's
// lists, so the marks can all be taken on the way.
func (s *funcStack) SubmitDn(ev *event.Event) {
	app, mark := len(s.out[0].ups), len(s.out[0].dns)
	s.states[0].HandleDn(ev, &s.out[0])
	for k := 1; k < len(s.out); k++ {
		next := len(s.out[k].dns)
		s.dnsInto(k, &s.out[k-1], mark)
		mark = next
	}
	s.route(app, mark)
}

// DeliverUp applies an up event to P(n-1): to the bottom layer, then
// its ups to the sub-stack above, and what comes back down to the
// bottom layer again.
func (s *funcStack) DeliverUp(ev *event.Event) {
	k := len(s.out) - 1
	o := &s.out[k]
	app, mark, dn := len(s.out[0].ups), len(o.ups), len(o.dns)
	s.states[k].HandleUp(ev, o)
	if k > 0 {
		s.upsInto(k, o, mark)
	}
	s.route(app, dn)
}

// route hands the application what exited the top above its mark, then
// the network what exited the bottom above its mark.
func (s *funcStack) route(app, net int) {
	top, bot := &s.out[0], &s.out[len(s.out)-1]
	appEnd, netEnd := len(top.ups), len(bot.dns)
	for i := app; i < appEnd; i++ {
		s.cb.app(top.ups[i])
	}
	for i := net; i < netEnd; i++ {
		s.cb.net(bot.dns[i])
	}
	top.ups, bot.dns = top.ups[:app], bot.dns[:net]
}
