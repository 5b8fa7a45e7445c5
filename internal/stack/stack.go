// Package stack composes micro-protocol layers into protocol stacks and
// executes them under the two models the paper compares (§4.2): the
// imperative model (IMP) with a central event scheduler, and the
// functional model (FUNC) of recursive pairwise composition, composed
// once at build time into a traversal by layer index (func.go). The
// machine-optimized bypass (MACH) and the hand-optimized bypass (HAND)
// wrap these stacks; they live in internal/opt.
package stack

import (
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/layer"
)

// Mode selects the execution model.
type Mode int

const (
	// Imp is the imperative model: a central event scheduler instantiates
	// each protocol layer individually and hands events to the layers as
	// they come out of the scheduler.
	Imp Mode = iota
	// Func is the functional model: stacking p on top of q yields a new
	// protocol; an entire stack is composed one layer at a time.
	Func
)

// String names the mode as the paper does.
func (m Mode) String() string {
	if m == Imp {
		return "IMP"
	}
	return "FUNC"
}

// Stack is a fully composed protocol stack with its two external
// attachment points: the application above and the transport below.
type Stack interface {
	// SubmitDn injects a down-going event at the top of the stack.
	SubmitDn(ev *event.Event)
	// DeliverUp injects an up-going event at the bottom of the stack
	// (a message decoded by the transport, or a timer expiration).
	DeliverUp(ev *event.Event)
	// States exposes the layer states, top first, so bypass code can
	// share state with the stack (§4.2: "The bypass can access the state
	// of the various layers in the stack").
	States() []layer.State
}

// Callbacks receive the events that exit the stack. The stack frees the
// event after the callback returns: callbacks may retain payload slices
// but not the event itself.
type Callbacks struct {
	// App receives events exiting the top (deliveries, views, ...).
	App func(*event.Event)
	// Net receives events exiting the bottom (messages to marshal and
	// transmit).
	Net func(*event.Event)
}

func (c *Callbacks) app(ev *event.Event) {
	if c.App != nil {
		c.App(ev)
	}
	event.Free(ev)
}

func (c *Callbacks) net(ev *event.Event) {
	if c.Net != nil {
		c.Net(ev)
	}
	event.Free(ev)
}

// BuildStates instantiates the named components, top first.
func BuildStates(names []string, cfg layer.Config) ([]layer.State, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("stack: empty layer list")
	}
	states := make([]layer.State, len(names))
	for i, n := range names {
		b, err := layer.Lookup(n)
		if err != nil {
			return nil, err
		}
		states[i] = b(cfg)
	}
	return states, nil
}

// Build composes the named components (top first) under the given mode.
func Build(names []string, cfg layer.Config, mode Mode, cb Callbacks) (Stack, error) {
	states, err := BuildStates(names, cfg)
	if err != nil {
		return nil, err
	}
	return FromStates(states, mode, cb), nil
}

// FromStates composes already-instantiated layer states (top first).
func FromStates(states []layer.State, mode Mode, cb Callbacks) Stack {
	switch mode {
	case Imp:
		return newImpStack(states, cb)
	default:
		return newFuncStack(states, cb)
	}
}
