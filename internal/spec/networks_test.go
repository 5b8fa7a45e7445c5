package spec

import (
	"strings"
	"testing"
)

// Direct tests of the abstract specification monitors and the
// total-order automaton; the refinement relations between
// implementations and monitors are checked in internal/check.

func findStep(t *testing.T, s State, key string) State {
	t.Helper()
	for _, st := range s.Steps() {
		if st.Ev.Key() == key {
			return st.Next
		}
	}
	t.Fatalf("no step %s from %s", key, s.Key())
	return nil
}

func hasStep(s State, key string) bool {
	for _, st := range s.Steps() {
		if st.Ev.Key() == key {
			return true
		}
	}
	return false
}

func ev(name string, params ...int) Event { return Event{Name: name, Params: params} }

// feed steps m through trace and returns the error of the last event;
// every earlier event must be accepted.
func feed(t *testing.T, m Monitor, trace ...Event) error {
	t.Helper()
	for i, e := range trace {
		before := m.Key()
		err := m.Step(e)
		if err != nil && m.Key() != before {
			t.Fatalf("rejected %v changed the monitor: %s -> %s", e, before, m.Key())
		}
		if i == len(trace)-1 {
			return err
		}
		if err != nil {
			t.Fatalf("%v rejected: %v", e, err)
		}
	}
	return nil
}

// accepts feeds trace to m and fails the test unless every event is
// taken; rejects does the same for every event but the last, which must
// be refused.
func accepts(t *testing.T, m Monitor, trace ...Event) {
	t.Helper()
	if err := feed(t, m, trace...); err != nil {
		t.Fatalf("%v rejected: %v", trace[len(trace)-1], err)
	}
}

func rejects(t *testing.T, m Monitor, trace ...Event) {
	t.Helper()
	if err := feed(t, m, trace...); err == nil {
		t.Fatalf("%v accepted after %v", trace[len(trace)-1], trace[:len(trace)-1])
	} else {
		t.Logf("rejected: %v", err)
	}
}

// TestFifoNetworkIsActuallyFifo: the FIFO monitor delivers in send
// order across destinations, and never out of it.
func TestFifoNetworkIsActuallyFifo(t *testing.T) {
	accepts(t, &FifoNetwork{}, ev("Send", 0, 0), ev("Send", 1, 1), ev("Deliver", 0, 0), ev("Deliver", 1, 1))
	rejects(t, &FifoNetwork{}, ev("Send", 0, 0), ev("Send", 0, 1), ev("Deliver", 0, 1))
	rejects(t, &FifoNetwork{}, ev("Cast", 0, 0))
}

func TestFifoNetworkSendOncePerPair(t *testing.T) {
	var fn FifoNetwork
	accepts(t, &fn, ev("Send", 1, 0))
	rejects(t, fn.Clone(), ev("Send", 1, 0))
	accepts(t, &fn, ev("Send", 0, 0), ev("Send", 1, 1))
}

// TestFifoNetworkDeliversOnce: a second Deliver(0,0) after
// Send(0,0)·Deliver(0,0) is refused, and the key — which encodes
// everything Step reads — tells that drained state from the initial one,
// whose continuations differ.
func TestFifoNetworkDeliversOnce(t *testing.T) {
	var initial, after FifoNetwork
	rejects(t, after.Clone(), ev("Send", 0, 0), ev("Deliver", 0, 0), ev("Deliver", 0, 0))
	accepts(t, &after, ev("Send", 0, 0), ev("Deliver", 0, 0))
	if initial.Key() == after.Key() {
		t.Fatalf("initial and drained states share the key %q", after.Key())
	}
	accepts(t, &initial, ev("Send", 0, 0))
	rejects(t, &after, ev("Send", 0, 0))
}

// TestLossyNetworkBehaviours pins Fig. 2(b)'s semantics: the lossy
// network can duplicate and reorder, but cannot deliver what was never
// sent.
func TestLossyNetworkBehaviours(t *testing.T) {
	accepts(t, &LossyNetwork{}, ev("Send", 0, 0), ev("Send", 0, 1), ev("Deliver", 0, 1), ev("Deliver", 0, 0), ev("Deliver", 0, 0))
	rejects(t, &LossyNetwork{}, ev("Send", 0, 0), ev("Deliver", 0, 1))
}

// TestLossyNetworkDropIsSilent: total silence after a send is a valid
// execution, and the bounded send stays spent.
func TestLossyNetworkDropIsSilent(t *testing.T) {
	var ln LossyNetwork
	accepts(t, &ln, ev("Send", 0, 0))
	rejects(t, &ln, ev("Send", 0, 0))
}

// TestTotalNetworkAgreesAcrossProcesses: members may deliver any order
// of cast messages, but one order: two members disagreeing at a position
// are refused.
func TestTotalNetworkAgreesAcrossProcesses(t *testing.T) {
	accepts(t, &TotalNetwork{}, ev("Cast", 0, 0), ev("Cast", 1, 0),
		ev("Deliver", 1, 1, 0), ev("Deliver", 0, 1, 0), ev("Deliver", 0, 0, 0), ev("Deliver", 1, 0, 0))
	rejects(t, &TotalNetwork{}, ev("Cast", 0, 0), ev("Cast", 1, 0), ev("Deliver", 0, 0, 0), ev("Deliver", 1, 1, 0))
}

// TestTotalNetworkDeliversCastsOnce: a message is delivered only after
// its cast, and once per member.
func TestTotalNetworkDeliversCastsOnce(t *testing.T) {
	rejects(t, &TotalNetwork{}, ev("Cast", 0, 0), ev("Deliver", 0, 1, 0))
	rejects(t, &TotalNetwork{}, ev("Cast", 0, 0), ev("Deliver", 1, 0, 0), ev("Deliver", 1, 0, 0))
	rejects(t, &TotalNetwork{}, ev("Cast", 0, 0), ev("Cast", 0, 0))
}

func TestTotalProtocolSequencerSelfStamps(t *testing.T) {
	tp := &TotalProtocol{N: 2, MsgsPerSender: 1, Orderly: true}
	s := tp.Initial()[0]
	s = findStep(t, s, "Cast(0,0)")
	// The sequencer can deliver its own cast immediately.
	if !hasStep(s, "Deliver(0,0,0)") {
		t.Fatal("sequencer cannot deliver its own stamped cast")
	}
	// The other member must first receive data and learn the order.
	if hasStep(s, "Deliver(1,0,0)") {
		t.Fatal("member 1 delivered without data or order")
	}
	s = findStep(t, s, "xfer(0,1,0)") // data reaches member 1
	s = findStep(t, s, "learn(1,0)")  // announcement reaches member 1
	_ = findStep(t, s, "Deliver(1,0,0)")
}

func TestTotalProtocolCompleted(t *testing.T) {
	tp := &TotalProtocol{N: 1, MsgsPerSender: 1, Orderly: true}
	s := tp.Initial()[0]
	if tp.Completed(s) {
		t.Fatal("initial state completed")
	}
	s = findStep(t, s, "Cast(0,0)")
	s = findStep(t, s, "Deliver(0,0,0)")
	if !tp.Completed(s) {
		t.Fatal("all-delivered state not completed")
	}
	if len(s.Steps()) != 0 {
		t.Fatal("completed singleton instance still has steps")
	}
}

func TestKeysAreCanonical(t *testing.T) {
	// Two different orders reaching the same logical state must produce
	// the same key (the checker's visited set relies on it), and a clone
	// must not share state with its original.
	a, b := &LossyNetwork{}, &LossyNetwork{}
	accepts(t, a, ev("Send", 0, 0), ev("Send", 1, 1))
	accepts(t, b, ev("Send", 1, 1), ev("Send", 0, 0))
	if a.Key() != b.Key() {
		t.Fatalf("keys differ for identical states:\n%s\n%s", a.Key(), b.Key())
	}
	if !strings.Contains(a.Key(), "0:0") {
		t.Fatalf("key lacks content: %s", a.Key())
	}
	for _, m := range []Monitor{a, &FifoNetwork{}, &TotalNetwork{}} {
		c, before := m.Clone(), m.Key()
		_ = c.Step(ev("Send", 2, 2))
		_ = c.Step(ev("Cast", 2, 2))
		if m.Key() != before || c.Key() == before {
			t.Fatalf("%T: clone shares state: %s / %s", m, m.Key(), c.Key())
		}
	}
}
