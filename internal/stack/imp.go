package stack

import (
	"ensemble/internal/event"
	"ensemble/internal/layer"
)

// impStack is the imperative execution model: a central event scheduler.
// Each handler invocation collects its output events; in the common case
// that exactly one event came out and nothing else is queued, the event
// is passed directly to the target layer, otherwise the outputs are
// enqueued back into the scheduler (paper §4.2, version 1).
type impStack struct {
	states []layer.State // top first
	cb     Callbacks

	// sinks are boxed once at construction: passing an impSink value
	// through the layer.Sink interface at dispatch time would allocate
	// on every handler invocation.
	sinks []layer.Sink

	// emit collects the current handler's output events.
	emit []schedItem
	// q is the scheduler queue: live items are q[qHead:]. Popping
	// advances qHead instead of shifting, and the storage is reclaimed
	// wholesale whenever the queue drains, so a run never copies or
	// allocates in the steady state.
	q     []schedItem
	qHead int
	// running guards against re-entrant injection from callbacks.
	running bool
}

// schedItem targets layer idx (or the application at -1, the network at
// len(states)) with an event.
type schedItem struct {
	idx int
	ev  *event.Event
}

type impSink struct {
	s   *impStack
	idx int
}

func (k *impSink) PassUp(ev *event.Event) {
	k.s.emit = append(k.s.emit, schedItem{idx: k.idx - 1, ev: ev})
}

func (k *impSink) PassDn(ev *event.Event) {
	k.s.emit = append(k.s.emit, schedItem{idx: k.idx + 1, ev: ev})
}

func newImpStack(states []layer.State, cb Callbacks) *impStack {
	s := &impStack{states: states, cb: cb}
	s.sinks = make([]layer.Sink, len(states))
	for i := range s.sinks {
		s.sinks[i] = &impSink{s: s, idx: i}
	}
	return s
}

func (s *impStack) States() []layer.State { return s.states }

func (s *impStack) SubmitDn(ev *event.Event) { s.inject(schedItem{idx: 0, ev: ev}) }

func (s *impStack) DeliverUp(ev *event.Event) { s.inject(schedItem{idx: len(s.states) - 1, ev: ev}) }

// inject hands an external event to the scheduler. Re-entrant calls
// (an application callback submitting a response) enqueue behind the
// event being processed.
func (s *impStack) inject(it schedItem) {
	if s.running {
		s.q = append(s.q, it)
		return
	}
	s.running = true
	s.run(it)
	s.running = false
}

// run is the scheduler loop.
func (s *impStack) run(cur schedItem) {
	for {
		s.dispatch(cur)
		// Common case: the handler produced exactly one event and the
		// queue is empty — pass it directly to the appropriate layer.
		if len(s.emit) == 1 && s.qHead == len(s.q) {
			cur = s.emit[0]
			s.emit = s.emit[:0]
			continue
		}
		s.q = append(s.q, s.emit...)
		s.emit = s.emit[:0]
		if s.qHead == len(s.q) {
			s.q = s.q[:0]
			s.qHead = 0
			return
		}
		cur = s.q[s.qHead]
		s.q[s.qHead] = schedItem{} // drop the event reference
		s.qHead++
	}
}

// dispatch runs one scheduled item: a layer handler, or an external exit.
func (s *impStack) dispatch(it schedItem) {
	switch {
	case it.idx < 0:
		s.cb.app(it.ev)
	case it.idx >= len(s.states):
		s.cb.net(it.ev)
	case it.ev.Dir == event.Up:
		s.states[it.idx].HandleUp(it.ev, s.sinks[it.idx])
	default:
		s.states[it.idx].HandleDn(it.ev, s.sinks[it.idx])
	}
}
