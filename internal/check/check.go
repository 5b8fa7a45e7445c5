// Package check discharges the paper's §3 proof obligations by bounded
// exhaustive state-space exploration: trace inclusion of a composed
// implementation in an abstract specification monitor (the role played
// by Nuprl proofs and by the hand proof of [11], which found a subtle
// bug in Ensemble's total ordering protocol), invariants over reachable
// states, and the Above/Below adjacency discipline for checking stack
// configurations (§3.2).
package check

import (
	"fmt"
	"strings"

	"ensemble/internal/spec"
)

// ErrLimit reports that exploration hit the state budget before
// completing; the result is then inconclusive rather than failed.
type ErrLimit struct{ Limit int }

func (e ErrLimit) Error() string {
	return fmt.Sprintf("check: state limit %d exceeded (bounded result inconclusive)", e.Limit)
}

// Violation is a trace-inclusion counterexample: an external trace the
// implementation can produce that the specification cannot.
type Violation struct {
	Trace []spec.Event
	// Reason is the monitor's rejection of the trace's last event.
	Reason error
}

// Error implements error.
func (v *Violation) Error() string {
	parts := make([]string, len(v.Trace))
	for i, e := range v.Trace {
		parts[i] = e.String()
	}
	return fmt.Sprintf("check: trace not allowed by specification: %s (%v)", strings.Join(parts, " · "), v.Reason)
}

// node is one state of the explored product: an implementation state,
// the monitor that has read its external trace (nil when there is no
// monitor), and that trace.
type node struct {
	s     spec.State
	m     spec.Monitor
	trace []spec.Event
}

// explore walks the states of a — paired with m, when m is not nil —
// breadth first, calling visit once per distinct state, and returns how
// many there are. It stops at the first error of visit or of the
// monitor, and with ErrLimit once limit states are exceeded.
func explore(a spec.Automaton, m spec.Monitor, limit int, visit func(spec.State) error) (int, error) {
	sig := a.Signature()
	seen := map[string]bool{}
	var queue []node
	push := func(n node) error {
		k := n.s.Key()
		if n.m != nil {
			k += "#" + n.m.Key()
		}
		if seen[k] {
			return nil
		}
		if len(seen) >= limit {
			return ErrLimit{Limit: limit}
		}
		seen[k] = true
		if visit != nil {
			if err := visit(n.s); err != nil {
				return fmt.Errorf("check: invariant violated in state %s: %w", n.s.Key(), err)
			}
		}
		queue = append(queue, n)
		return nil
	}
	for _, s := range a.Initial() {
		if err := push(node{s: s, m: m}); err != nil {
			return len(seen), err
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, st := range n.s.Steps() {
			next := node{s: st.Next, m: n.m, trace: n.trace}
			if k, ok := sig[st.Ev.Name]; n.m != nil && ok && k != spec.Internal {
				next.m = n.m.Clone()
				next.trace = append(n.trace[:len(n.trace):len(n.trace)], st.Ev)
				if err := next.m.Step(st.Ev); err != nil {
					return len(seen), &Violation{Trace: next.trace, Reason: err}
				}
			}
			if err := push(next); err != nil {
				return len(seen), err
			}
		}
	}
	return len(seen), nil
}

// Reachable explores an automaton's state space and returns the number
// of distinct states, failing with ErrLimit when the budget trips.
func Reachable(a spec.Automaton, limit int) (int, error) {
	return explore(a, nil, limit, nil)
}

// CheckInvariant verifies a predicate over every reachable state.
func CheckInvariant(a spec.Automaton, limit int, inv func(spec.State) error) error {
	_, err := explore(a, nil, limit, inv)
	return err
}

// CheckDeadlockFree verifies that no reachable state is stuck: every
// state must either enable a transition or satisfy done (a legitimate
// terminal state of the bounded instance). A protocol that can wedge —
// the flush-deadlock class of bug — fails here with the stuck state's
// key.
func CheckDeadlockFree(a spec.Automaton, limit int, done func(spec.State) bool) error {
	return CheckInvariant(a, limit, func(s spec.State) error {
		if len(s.Steps()) == 0 && (done == nil || !done(s)) {
			return fmt.Errorf("deadlocked state: %s", s.Key())
		}
		return nil
	})
}

// TraceInclusion verifies that every external trace of impl is allowed
// by the monitor m ("we then have to show that any execution of this
// composed specification is also an execution of FifoNetwork", §3.1).
// Because the monitor is deterministic, this is a breadth-first walk of
// impl × m: every external step of impl is fed to the monitor of its
// source state, and the first one rejected ends the walk, its trace the
// counterexample. Exact on bounded instances. m itself is not changed.
func TraceInclusion(impl spec.Automaton, m spec.Monitor, limit int) error {
	_, err := explore(impl, m.Clone(), limit, nil)
	return err
}
