// Package spec is the I/O-automaton specification framework of §3.
// Implementations are automata with event-condition-action rules: the
// concrete specifications (the FifoProtocol of Fig. 3, the sequencer of
// the total-order study) only involve state and events local to one
// participant, and compose with channel automata by tying events
// together. Abstract specifications (the FifoNetwork and LossyNetwork of
// Fig. 2, the totally ordered network) are monitors: deterministic trace
// predicates that take one external event at a time, in the style of
// composable temporal-logic components. The check package verifies
// trace inclusion of an implementation in a monitor on bounded
// instances — the role Nuprl proofs play in the paper — and tests run
// the same monitors online over a running group's deliveries.
package spec

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies an action in an automaton's signature.
type Kind int8

const (
	// Input actions are controlled by the environment; IOA requires
	// automata to be input-enabled.
	Input Kind = iota
	// Output actions are controlled by the automaton and visible.
	Output
	// Internal actions are controlled by the automaton and hidden.
	Internal
)

// Event is one action instance: a name and its parameters.
type Event struct {
	Name   string
	Params []int
}

// String renders e.g. Send(1,0).
func (e Event) String() string {
	if len(e.Params) == 0 {
		return e.Name
	}
	return e.Name + "(" + IntsKey(e.Params) + ")"
}

// Key is the canonical form used to match events across automata.
func (e Event) Key() string { return e.String() }

// Step is one transition: the event taken and the successor state.
type Step struct {
	Ev   Event
	Next State
}

// State is one automaton state. Key must canonically encode the state:
// two states are identical iff their keys are equal.
type State interface {
	Key() string
	// Steps enumerates every enabled transition from this state.
	Steps() []Step
}

// Monitor is an abstract specification as a deterministic trace
// predicate: it reads a trace one external event at a time and rejects
// the first event the specification does not allow. A rejected event
// leaves the monitor unchanged.
type Monitor interface {
	// Step takes one event, or returns why the specification cannot.
	Step(Event) error
	// Key encodes everything Step reads: monitors with equal keys accept
	// the same continuations.
	Key() string
	// Clone returns an independent copy.
	Clone() Monitor
}

// Automaton is a (bounded) I/O automaton.
type Automaton interface {
	Name() string
	// Initial returns the initial states.
	Initial() []State
	// Signature maps each action name to its kind. Parameters are not
	// part of the signature; all instances of a name share its kind.
	Signature() map[string]Kind
}

// ActionKind looks up an action's kind, defaulting to Internal for
// names outside the signature (convenient for composed automata that
// hide tied actions).
func ActionKind(a Automaton, name string) Kind {
	if k, ok := a.Signature()[name]; ok {
		return k
	}
	return Internal
}

// --- generic helpers for building state keys ---

// KeyOf renders a labeled sequence of key parts.
func KeyOf(parts ...string) string { return strings.Join(parts, "|") }

// IntsKey renders an int slice compactly.
func IntsKey(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, ",")
}

// PairsKey renders a sorted multiset of pairs.
func PairsKey(ps [][2]int) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = fmt.Sprintf("%d:%d", p[0], p[1])
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
