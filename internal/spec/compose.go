package spec

import (
	"fmt"
	"strings"
)

// Compose implements I/O-automaton composition (§3.1): events with the
// same name are tied together — a step on a shared action requires every
// component with that action in its signature to take it simultaneously,
// combining their conditions and actions. Actions named in hide become
// internal to the composition (the tied Below.Send/Send pairs of the
// paper's FifoProtocol ∘ LossyNetwork construction); everything else
// keeps its visibility.
//
// Well-formedness: an action name may be the output of at most one
// component. Components must be input-enabled for their shared inputs
// whenever the outputting component can produce them; a violation
// surfaces as a missing transition during checking.
func Compose(name string, hide []string, parts ...Automaton) Automaton {
	hidden := map[string]bool{}
	for _, h := range hide {
		hidden[h] = true
	}
	sig := map[string]Kind{}
	owners := map[string][]int{}
	for i, p := range parts {
		for a, k := range p.Signature() {
			owners[a] = append(owners[a], i)
			if hidden[a] {
				sig[a] = Internal
				continue
			}
			switch prev, seen := sig[a]; {
			case !seen:
				sig[a] = k
			case k == Output && prev == Output:
				panic(fmt.Sprintf("spec: action %q is an output of two components of %s", a, name))
			case k == Output:
				// Output overrides input: the composition controls it.
				sig[a] = Output
			case k == Internal || prev == Internal:
				panic(fmt.Sprintf("spec: internal action %q shared in %s", a, name))
			}
		}
	}
	return &composition{name: name, parts: parts, sig: sig, owners: owners}
}

type composition struct {
	name   string
	parts  []Automaton
	sig    map[string]Kind
	owners map[string][]int // action name → indexes of parts sharing it
}

func (c *composition) Name() string               { return c.name }
func (c *composition) Signature() map[string]Kind { return c.sig }

func (c *composition) Initial() []State {
	states := []State{&compState{c: c}}
	for i := range c.parts {
		var next []State
		for _, ps := range c.parts[i].Initial() {
			for _, st := range states {
				cs := st.(*compState).clone()
				cs.subs = append(cs.subs, ps)
				next = append(next, cs)
			}
		}
		states = next
	}
	return states
}

type compState struct {
	c    *composition
	subs []State
}

func (s *compState) Key() string {
	parts := make([]string, len(s.subs))
	for i, sub := range s.subs {
		parts[i] = sub.Key()
	}
	return strings.Join(parts, "‖")
}

func (s *compState) clone() *compState {
	return &compState{c: s.c, subs: append([]State(nil), s.subs...)}
}

// Steps enumerates the composed transitions: for every event key enabled
// in some controlling component, every sharer must step on the identical
// event; the successor combines the individual successors.
func (s *compState) Steps() []Step {
	// stepsOf[i] groups part i's steps by event key.
	stepsOf := make([]map[string][]Step, len(s.subs))
	for i, sub := range s.subs {
		m := map[string][]Step{}
		for _, st := range sub.Steps() {
			m[st.Ev.Key()] = append(m[st.Ev.Key()], st)
		}
		stepsOf[i] = m
	}

	var out []Step
	emitted := map[string]bool{}
	for i := range s.subs {
		for key, sts := range stepsOf[i] {
			ev := sts[0].Ev
			sharers := s.c.owners[ev.Name]
			// The step is driven by the first sharer able to take it, to
			// avoid emitting the same composed event several times.
			if sharers[0] != i || emitted[key] {
				continue
			}
			// Inputs driven purely by the environment originate from the
			// composition boundary; shared outputs originate from their
			// owner. Either way every sharer must step on the event.
			combos := []*compState{s.clone()}
			ok := true
			for _, j := range sharers {
				choices := stepsOf[j][key]
				if j == i {
					choices = sts
				}
				if len(choices) == 0 {
					ok = false // a sharer is not enabled: no composed step
					break
				}
				var next []*compState
				for _, base := range combos {
					for _, ch := range choices {
						cs := base.clone()
						cs.subs[j] = ch.Next
						next = append(next, cs)
					}
				}
				combos = next
			}
			if !ok {
				continue
			}
			emitted[key] = true
			for _, cs := range combos {
				out = append(out, Step{Ev: ev, Next: cs})
			}
		}
	}
	return out
}
