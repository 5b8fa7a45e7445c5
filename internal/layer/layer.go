// Package layer defines the common micro-protocol interface that every
// Ensemble component adheres to (paper §2): a layer has a top-level and a
// bottom-level interface, receives events from the adjacent layers, and
// emits events to them. A particular micro-protocol implementation
// constitutes a component; the registry maps component names to
// constructors so stacks can be configured by name, which is exactly the
// input the paper's dynamic optimizer takes (§4.1.3).
package layer

import (
	"fmt"
	"sort"
	"sync"

	"ensemble/internal/event"
)

// Sink receives the events a layer emits. The stack glue decides what
// PassUp/PassDn mean: in the imperative model they enqueue into the
// central scheduler; in the functional model they recurse into the
// adjacent layer.
type Sink interface {
	// PassUp hands an event to the layer above (or to the application
	// when emitted by the top layer).
	PassUp(*event.Event)
	// PassDn hands an event to the layer below (or to the transport when
	// emitted by the bottom layer).
	PassDn(*event.Event)
}

// Config parameterizes a layer instance. Components are individually
// parameterized at configuration time (paper §1).
type Config struct {
	View *event.View

	// MaxFragSize bounds the payload of one fragment (frag layer).
	MaxFragSize int

	// WindowSize bounds outstanding point-to-point messages (pt2ptw).
	WindowSize int64

	// CreditBytes is the multicast flow-control credit quantum (mflow).
	CreditBytes int64

	// SweepInterval is the virtual-time interval between housekeeping
	// timer sweeps (retransmission, stability gossip), in nanoseconds.
	SweepInterval int64

	// SuspectTimeout is how long without traffic before a peer is
	// suspected (suspect layer), in nanoseconds.
	SuspectTimeout int64

	// SignKey is the shared HMAC key for the sign layer; required when
	// the stack contains it.
	SignKey []byte
}

// DefaultConfig returns the parameters used by the paper-style stacks.
func DefaultConfig(v *event.View) Config {
	return Config{
		View:           v,
		MaxFragSize:    8192,
		WindowSize:     64,
		CreditBytes:    1 << 16,
		SweepInterval:  int64(50e6), // 50ms
		SuspectTimeout: int64(1e9),  // 1s
	}
}

// State is one instantiated layer: the collected variables the protocol
// maintains plus its two event handlers. Thinking of a protocol as a
// function from (state, input event) to (state, output events) is the
// view the optimizer takes of it (§4.1).
type State interface {
	// Name reports the component name the state was built from.
	Name() string
	// HandleUp processes an event arriving from the layer below.
	HandleUp(ev *event.Event, snk Sink)
	// HandleDn processes an event arriving from the layer above.
	HandleDn(ev *event.Event, snk Sink)
}

// Builder constructs a fresh layer state for a view.
type Builder func(cfg Config) State

var (
	mu       sync.RWMutex
	registry = map[string]Builder{}
)

// Register installs a component under its name. Layer packages call it
// from init; registering a duplicate name panics because it means two
// components collide in the library.
func Register(name string, b Builder) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("layer: duplicate registration of %q", name))
	}
	registry[name] = b
}

// Lookup returns the builder for a component name.
func Lookup(name string) (Builder, error) {
	mu.RLock()
	defer mu.RUnlock()
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("layer: unknown component %q", name)
	}
	return b, nil
}

// Names lists every registered component, sorted, mirroring Ensemble's
// "library of over sixty components" (§2) at the scale we build.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PassThroughUp forwards an event upward unchanged. Layers use it for
// event types they do not interpret, preserving the Ensemble convention
// that unknown events flow through.
func PassThroughUp(ev *event.Event, snk Sink) { snk.PassUp(ev) }

// PassThroughDn forwards an event downward unchanged.
func PassThroughDn(ev *event.Event, snk Sink) { snk.PassDn(ev) }
