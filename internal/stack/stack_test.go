package stack

import (
	"fmt"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/layer"
)

// Synthetic layers with scripted behaviours pin the execution models'
// semantics without depending on the protocol library.

// tagLayer stamps each passing payload with its name, so tests can read
// off the traversal order from the payload.
type tagLayer struct{ name string }

func (l *tagLayer) Name() string { return l.name }
func (l *tagLayer) HandleDn(ev *event.Event, snk layer.Sink) {
	if ev.Type == event.ECast || ev.Type == event.ESend {
		ev.Msg.Payload = append(ev.Msg.Payload, []byte(l.name+"v")...)
	}
	snk.PassDn(ev)
}
func (l *tagLayer) HandleUp(ev *event.Event, snk layer.Sink) {
	if ev.Type == event.ECast || ev.Type == event.ESend {
		ev.Msg.Payload = append(ev.Msg.Payload, []byte(l.name+"^")...)
	}
	snk.PassUp(ev)
}

// bounceLayer reflects a copy of every down-going cast (like local).
type bounceLayer struct{ tagLayer }

func (l *bounceLayer) HandleDn(ev *event.Event, snk layer.Sink) {
	if ev.Type == event.ECast {
		cp := event.Alloc()
		cp.Dir, cp.Type = event.Up, event.ECast
		cp.Msg.Payload = append([]byte(nil), ev.Msg.Payload...)
		snk.PassDn(ev)
		snk.PassUp(cp)
		return
	}
	snk.PassDn(ev)
}

// splitLayer duplicates every down-going cast into two (like frag).
type splitLayer struct{ tagLayer }

func (l *splitLayer) HandleDn(ev *event.Event, snk layer.Sink) {
	if ev.Type == event.ECast {
		for i := 0; i < 2; i++ {
			cp := event.Alloc()
			cp.Dir, cp.Type = event.Dn, event.ECast
			cp.Msg.Payload = append([]byte(nil), append(ev.Msg.Payload, byte('0'+i))...)
			snk.PassDn(cp)
		}
		event.Free(ev)
		return
	}
	snk.PassDn(ev)
}

func runStack(t *testing.T, mode Mode, states []layer.State, ev *event.Event) (apps, nets []string) {
	t.Helper()
	s := FromStates(states, mode, Callbacks{
		App: func(e *event.Event) { apps = append(apps, string(e.Msg.Payload)) },
		Net: func(e *event.Event) { nets = append(nets, string(e.Msg.Payload)) },
	})
	if ev.Dir == event.Dn {
		s.SubmitDn(ev)
	} else {
		s.DeliverUp(ev)
	}
	return apps, nets
}

func TestTraversalOrderBothModes(t *testing.T) {
	for _, mode := range []Mode{Imp, Func} {
		t.Run(mode.String(), func(t *testing.T) {
			states := []layer.State{&tagLayer{"a"}, &tagLayer{"b"}, &tagLayer{"c"}}
			_, nets := runStack(t, mode, states, event.CastEv(nil))
			if len(nets) != 1 || nets[0] != "avbvcv" {
				t.Fatalf("down traversal = %v, want [avbvcv]", nets)
			}
			states = []layer.State{&tagLayer{"a"}, &tagLayer{"b"}, &tagLayer{"c"}}
			up := event.Alloc()
			up.Dir, up.Type = event.Up, event.ECast
			apps, _ := runStack(t, mode, states, up)
			if len(apps) != 1 || apps[0] != "c^b^a^" {
				t.Fatalf("up traversal = %v, want [c^b^a^]", apps)
			}
		})
	}
}

func TestBounceBothModes(t *testing.T) {
	for _, mode := range []Mode{Imp, Func} {
		t.Run(mode.String(), func(t *testing.T) {
			states := []layer.State{&tagLayer{"a"}, &bounceLayer{tagLayer{"B"}}, &tagLayer{"c"}}
			apps, nets := runStack(t, mode, states, event.CastEv(nil))
			if len(nets) != 1 || nets[0] != "avcv" {
				t.Fatalf("down = %v", nets)
			}
			// The bounced copy re-enters only the layer above the bouncer.
			if len(apps) != 1 || apps[0] != "ava^" {
				t.Fatalf("bounce = %v, want [ava^]", apps)
			}
		})
	}
}

func TestSplitBothModes(t *testing.T) {
	for _, mode := range []Mode{Imp, Func} {
		t.Run(mode.String(), func(t *testing.T) {
			states := []layer.State{&tagLayer{"a"}, &splitLayer{tagLayer{"S"}}, &tagLayer{"c"}}
			_, nets := runStack(t, mode, states, event.CastEv(nil))
			if len(nets) != 2 {
				t.Fatalf("split produced %d events, want 2", len(nets))
			}
			if nets[0] != "av0cv" || nets[1] != "av1cv" {
				t.Fatalf("split outputs = %v", nets)
			}
		})
	}
}

// TestImpReentrantSubmit: an application callback that submits a new
// event mid-run must not corrupt the scheduler.
func TestImpReentrantSubmit(t *testing.T) {
	states := []layer.State{&tagLayer{"x"}}
	var nets []string
	var s Stack
	depth := 0
	s = FromStates(states, Imp, Callbacks{
		App: func(e *event.Event) {
			if depth < 3 {
				depth++
				s.SubmitDn(event.CastEv([]byte(fmt.Sprintf("r%d", depth))))
			}
		},
		Net: func(e *event.Event) { nets = append(nets, string(e.Msg.Payload)) },
	})
	up := event.Alloc()
	up.Dir, up.Type = event.Up, event.ECast
	s.DeliverUp(up)
	if len(nets) != 1 || nets[0] != "r1xv" {
		t.Fatalf("reentrant submit: nets = %v", nets)
	}
}

func TestBuildUnknownLayer(t *testing.T) {
	if _, err := Build([]string{"no-such-layer"}, layer.Config{}, Imp, Callbacks{}); err == nil {
		t.Fatal("unknown layer accepted")
	}
	if _, err := Build(nil, layer.Config{}, Imp, Callbacks{}); err == nil {
		t.Fatal("empty stack accepted")
	}
}

func TestStatesExposed(t *testing.T) {
	sts := []layer.State{&tagLayer{"a"}, &tagLayer{"b"}}
	for _, mode := range []Mode{Imp, Func} {
		s := FromStates(sts, mode, Callbacks{})
		if len(s.States()) != 2 || s.States()[0].Name() != "a" {
			t.Fatalf("%v States() wrong", mode)
		}
	}
}
