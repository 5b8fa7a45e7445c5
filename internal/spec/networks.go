package spec

import (
	"fmt"
	"maps"
	"slices"
)

// The abstract specifications, recast as monitors. Fig. 2's networks
// are nondeterministic automata (the lossy network's Drop is hidden, the
// total network's Order is hidden), but the traces they allow have a
// deterministic description: each monitor below keeps just what decides
// whether the next event is allowed. A message is one (dst, msg) or
// (sender, index) pair, sent or cast at most once: the bound that keeps
// a checked instance finite, as in the bounded automata they replace.

// FifoNetwork is Fig. 2(a): one global in-transit queue. Send(dst,msg)
// appends; Deliver(dst,msg) must be the head. The zero value is the
// initial state.
type FifoNetwork struct {
	queue [][2]int
	sent  pairs
}

// Step implements Monitor.
func (f *FifoNetwork) Step(ev Event) error {
	p, err := pairOf(ev)
	if err != nil {
		return err
	}
	if ev.Name == "Send" {
		if err := f.sent.add(ev, p); err != nil {
			return err
		}
		f.queue = append(f.queue, p)
		return nil
	}
	if len(f.queue) == 0 {
		return fmt.Errorf("%v: nothing is in transit", ev)
	}
	if f.queue[0] != p {
		return fmt.Errorf("%v: the head of the queue is %d:%d", ev, f.queue[0][0], f.queue[0][1])
	}
	f.queue = f.queue[1:]
	return nil
}

// Key implements Monitor.
func (f *FifoNetwork) Key() string {
	return KeyOf("q", IntsKey(flattenPairs(f.queue)), "s", f.sent.key())
}

// Clone implements Monitor.
func (f *FifoNetwork) Clone() Monitor {
	return &FifoNetwork{queue: slices.Clone(f.queue), sent: maps.Clone(f.sent)}
}

// LossyNetwork is Fig. 2(b): the network may lose, duplicate and reorder,
// so the one thing it cannot do is create — every Deliver(dst,msg) needs
// its Send(dst,msg) earlier in the trace. The zero value is the initial
// state.
type LossyNetwork struct {
	sent pairs
}

// Step implements Monitor.
func (l *LossyNetwork) Step(ev Event) error {
	p, err := pairOf(ev)
	if err != nil {
		return err
	}
	if ev.Name == "Send" {
		return l.sent.add(ev, p)
	}
	if !l.sent[p] {
		return fmt.Errorf("%v: never sent", ev)
	}
	return nil
}

// Key implements Monitor.
func (l *LossyNetwork) Key() string { return KeyOf("s", l.sent.key()) }

// Clone implements Monitor.
func (l *LossyNetwork) Clone() Monitor { return &LossyNetwork{sent: maps.Clone(l.sent)} }

// TotalNetwork is the abstract totally ordered network of the §3.1
// total-order study: Cast(p,i) is member p's i-th multicast, and
// Deliver(q,p,i) hands it to member q. All members deliver one global
// order: the first delivery at a position fixes the log entry there, and
// each member's deliveries must be a prefix of the log. Any order of
// cast messages is allowed; what is specified is that members agree on
// it. The zero value is the initial state.
type TotalNetwork struct {
	cast pairs
	log  [][2]int
	next []int // next[q]: member q's next log position
}

// Step implements Monitor.
func (t *TotalNetwork) Step(ev Event) error {
	switch {
	case ev.Name == "Cast" && len(ev.Params) == 2:
		return t.cast.add(ev, [2]int{ev.Params[0], ev.Params[1]})
	case ev.Name != "Deliver" || len(ev.Params) != 3:
		return fmt.Errorf("%v is not an action of the specification", ev)
	}
	q, m := ev.Params[0], [2]int{ev.Params[1], ev.Params[2]}
	if q < 0 {
		return fmt.Errorf("%v: no member %d", ev, q)
	}
	k := 0
	if q < len(t.next) {
		k = t.next[q]
	}
	switch at := slices.Index(t.log, m); {
	case k < len(t.log) && t.log[k] != m:
		return fmt.Errorf("%v: position %d of the order is %d:%d", ev, k, t.log[k][0], t.log[k][1])
	case k == len(t.log) && at >= 0:
		return fmt.Errorf("%v: already ordered at position %d", ev, at)
	case k == len(t.log) && !t.cast[m]:
		return fmt.Errorf("%v: never cast", ev)
	case k == len(t.log):
		t.log = append(t.log, m)
	}
	if q >= len(t.next) {
		t.next = append(t.next, make([]int, q+1-len(t.next))...)
	}
	t.next[q]++
	return nil
}

// Key implements Monitor.
func (t *TotalNetwork) Key() string {
	return KeyOf("c", t.cast.key(), "log", IntsKey(flattenPairs(t.log)), "at", IntsKey(t.next))
}

// Clone implements Monitor.
func (t *TotalNetwork) Clone() Monitor {
	return &TotalNetwork{cast: maps.Clone(t.cast), log: slices.Clone(t.log), next: slices.Clone(t.next)}
}

// pairs is the set of messages a specification has taken.
type pairs map[[2]int]bool

func (s *pairs) add(ev Event, p [2]int) error {
	if (*s)[p] {
		return fmt.Errorf("%v: taken twice, and the bounded specification takes each message once", ev)
	}
	if *s == nil {
		*s = pairs{}
	}
	(*s)[p] = true
	return nil
}

func (s pairs) key() string {
	ps := make([][2]int, 0, len(s))
	for p := range s {
		ps = append(ps, p)
	}
	return PairsKey(ps)
}

// pairOf checks that ev is a network's Send(dst,msg) or Deliver(dst,msg),
// and returns its (dst, msg) pair.
func pairOf(ev Event) ([2]int, error) {
	if (ev.Name != "Send" && ev.Name != "Deliver") || len(ev.Params) != 2 {
		return [2]int{}, fmt.Errorf("%v is not an action of the specification", ev)
	}
	return [2]int{ev.Params[0], ev.Params[1]}, nil
}

func flattenPairs(ps [][2]int) []int {
	out := make([]int, 0, 2*len(ps))
	for _, p := range ps {
		out = append(out, p[0], p[1])
	}
	return out
}
