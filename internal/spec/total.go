package spec

import (
	"fmt"
	"slices"
)

// The total ordering protocol study of §3.1: the paper reports a manual
// proof of one of Ensemble's total ordering protocols (with [11]), which
// located a subtle bug. Here the sequencer protocol implemented by the
// total layer is modelled as an automaton over reliable FIFO channels
// (the service mnak provides — itself checked by FifoProtocolSystem, the
// same compositional split the paper uses) and checked against the
// TotalNetwork monitor.

// TotalProtocol models the sequencer protocol of the total layer over
// reliable FIFO channels: rank 0 stamps its own casts at send time and
// assigns positions to other members' casts on arrival, members learn
// the announcement stream in order and deliver a position once they hold
// its message. Its external actions, Cast(p,i) and Deliver(q,p,i), are
// TotalNetwork's.
//
// The total layer announces runs: one announcement with a count orders
// count consecutive positions of one origin. Taking it is count
// consecutive learns at once, and learns are internal, so every trace of
// the run protocol is a trace of this per-cast model, and checking the
// model covers the runs. The model leaves out the close of an open run
// at the end of the sequencer's input burst and the sequencer blocked by
// a flush — both only decide when an announcement leaves — and view
// changes: its group is fixed, and no member fails or leaves.
//
// With Orderly false the model delivers data on arrival, skipping the
// ordering wait: the subtle-bug variant the checker must reject.
type TotalProtocol struct {
	N, MsgsPerSender int
	// Orderly selects the correct protocol (true) or the buggy variant
	// that skips the ordering wait (false).
	Orderly bool
}

// Name implements Automaton.
func (t *TotalProtocol) Name() string { return "TotalProtocol" }

// Signature implements Automaton.
func (t *TotalProtocol) Signature() map[string]Kind {
	return map[string]Kind{
		"Cast":    Input,
		"xfer":    Internal, // channel head moves into a member
		"learn":   Internal, // a member learns the next announcement
		"Deliver": Output,
	}
}

// Initial implements Automaton.
func (t *TotalProtocol) Initial() []State {
	n := t.N
	st := &totalProtoState{
		a:         t,
		sent:      make([]int, n),
		dataCh:    make([][][]int, n),
		got:       make([][]bool, n),
		anncIdx:   make([]int, n),
		delivered: make([][]int, n),
	}
	for p := 0; p < n; p++ {
		st.dataCh[p] = make([][]int, n)
		st.got[p] = make([]bool, n*t.MsgsPerSender)
	}
	return []State{st}
}

// Agreement returns an error when, in a state of this automaton, some
// member's deliveries are not a prefix of the sequencer's order.
func (t *TotalProtocol) Agreement(s State) error {
	ps := s.(*totalProtoState)
	for q, d := range ps.delivered {
		if len(d) > len(ps.announced) || !slices.Equal(d, ps.announced[:len(d)]) {
			return fmt.Errorf("member %d delivered %v, not a prefix of the order %v", q, d, ps.announced)
		}
	}
	return nil
}

// Completed reports whether a state of this automaton is the bounded
// instance's legitimate end: every member has delivered every message.
func (t *TotalProtocol) Completed(s State) bool {
	for _, d := range s.(*totalProtoState).delivered {
		if len(d) != t.N*t.MsgsPerSender {
			return false
		}
	}
	return true
}

type totalProtoState struct {
	a *TotalProtocol

	// sent[p]: casts submitted by p so far. A message's id is
	// p*MsgsPerSender + i.
	sent []int
	// dataCh[p][q]: FIFO channel of message ids from p to q (p ≠ q).
	dataCh [][][]int
	// got[q][id]: q holds the message (its own casts immediately).
	got [][]bool
	// announced: the sequencer's global order.
	announced []int
	// anncIdx[q]: announcements learned by q (rank 0 learns its own
	// instantly).
	anncIdx []int
	// delivered[q]: the ids q delivered, in order.
	delivered [][]int
}

func (s *totalProtoState) Key() string {
	return fmt.Sprintf("tp|%v|%v|%v|%v|%v|%v", s.sent, s.dataCh, s.got, s.announced, s.anncIdx, s.delivered)
}

func (s *totalProtoState) clone() *totalProtoState {
	cp := &totalProtoState{
		a:         s.a,
		sent:      slices.Clone(s.sent),
		dataCh:    make([][][]int, len(s.dataCh)),
		got:       make([][]bool, len(s.got)),
		announced: slices.Clone(s.announced),
		anncIdx:   slices.Clone(s.anncIdx),
		delivered: make([][]int, len(s.delivered)),
	}
	for p := range s.dataCh {
		cp.dataCh[p] = make([][]int, len(s.dataCh[p]))
		for q, ch := range s.dataCh[p] {
			cp.dataCh[p][q] = slices.Clone(ch)
		}
		cp.got[p] = slices.Clone(s.got[p])
		cp.delivered[p] = slices.Clone(s.delivered[p])
	}
	return cp
}

// arrive records that member q now holds message id; at the sequencer
// that assigns the message its position.
func (s *totalProtoState) arrive(q, id int) {
	s.got[q][id] = true
	if q == 0 {
		s.announced = append(s.announced, id)
		s.anncIdx[0] = len(s.announced)
	}
}

// Steps implements State.
func (s *totalProtoState) Steps() []Step {
	var steps []Step
	n, m := s.a.N, s.a.MsgsPerSender
	// Cast(p, i): the next message of sender p, held by p at once (the
	// local layer) and stamped at once if p is the sequencer.
	for p := 0; p < n; p++ {
		if s.sent[p] == m {
			continue
		}
		id := p*m + s.sent[p]
		next := s.clone()
		next.sent[p]++
		next.arrive(p, id)
		for q := 0; q < n; q++ {
			if q != p {
				next.dataCh[p][q] = append(next.dataCh[p][q], id)
			}
		}
		steps = append(steps, Step{Ev: Event{Name: "Cast", Params: []int{p, s.sent[p]}}, Next: next})
	}
	// xfer: a channel head arrives.
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			if len(s.dataCh[p][q]) == 0 {
				continue
			}
			id := s.dataCh[p][q][0]
			next := s.clone()
			next.dataCh[p][q] = next.dataCh[p][q][1:]
			next.arrive(q, id)
			steps = append(steps, Step{Ev: Event{Name: "xfer", Params: []int{p, q, id}}, Next: next})
		}
	}
	// learn: announcements propagate in order.
	for q := 1; q < n; q++ {
		if s.anncIdx[q] < len(s.announced) {
			next := s.clone()
			next.anncIdx[q]++
			steps = append(steps, Step{Ev: Event{Name: "learn", Params: []int{q, s.anncIdx[q]}}, Next: next})
		}
	}
	// Deliver.
	for q := 0; q < n; q++ {
		for _, id := range s.deliverable(q) {
			next := s.clone()
			next.delivered[q] = append(next.delivered[q], id)
			steps = append(steps, Step{Ev: Event{Name: "Deliver", Params: []int{q, id / m, id % m}}, Next: next})
		}
	}
	return steps
}

// deliverable lists the messages member q may deliver next: the next
// learned position once q holds its message, or, in the buggy variant,
// anything q holds and has not delivered.
func (s *totalProtoState) deliverable(q int) []int {
	if s.a.Orderly {
		k := len(s.delivered[q])
		if k < s.anncIdx[q] && s.got[q][s.announced[k]] {
			return []int{s.announced[k]}
		}
		return nil
	}
	var out []int
	for id, held := range s.got[q] {
		if held && !slices.Contains(s.delivered[q], id) {
			out = append(out, id)
		}
	}
	return out
}
