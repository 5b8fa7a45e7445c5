package spec

import (
	"strings"
	"testing"
)

// Tiny scripted automata for pinning composition semantics.

type scriptAuto struct {
	name string
	sig  map[string]Kind
	init State
}

func (a *scriptAuto) Name() string               { return a.name }
func (a *scriptAuto) Signature() map[string]Kind { return a.sig }
func (a *scriptAuto) Initial() []State           { return []State{a.init} }

type scriptState struct {
	key   string
	steps func() []Step
}

func (s *scriptState) Key() string   { return s.key }
func (s *scriptState) Steps() []Step { return s.steps() }

func st(key string, steps func() []Step) *scriptState {
	return &scriptState{key: key, steps: steps}
}

// TestComposeSynchronizesSharedActions: an output of one component and
// the matching input of another fire as one composed step; mismatched
// parameters do not synchronize.
func TestComposeSynchronizesSharedActions(t *testing.T) {
	done := st("done", func() []Step { return nil })
	producer := &scriptAuto{
		name: "prod",
		sig:  map[string]Kind{"msg": Output},
		init: st("p0", func() []Step {
			return []Step{{Ev: Event{Name: "msg", Params: []int{7}}, Next: done}}
		}),
	}
	consumed := st("c-done", func() []Step { return nil })
	consumer := &scriptAuto{
		name: "cons",
		sig:  map[string]Kind{"msg": Input, "out": Output},
		init: st("c0", func() []Step {
			return []Step{
				{Ev: Event{Name: "msg", Params: []int{7}}, Next: consumed},
				{Ev: Event{Name: "msg", Params: []int{8}}, Next: consumed}, // input-enabled for 8 too
			}
		}),
	}
	c := Compose("t", nil, producer, consumer)
	init := c.Initial()
	if len(init) != 1 {
		t.Fatalf("%d initial states", len(init))
	}
	steps := init[0].Steps()
	// Only msg(7) synchronizes: the producer cannot emit msg(8).
	if len(steps) != 1 || steps[0].Ev.Key() != "msg(7)" {
		var keys []string
		for _, s := range steps {
			keys = append(keys, s.Ev.Key())
		}
		t.Fatalf("composed steps = %v, want [msg(7)]", keys)
	}
	if !strings.Contains(steps[0].Next.Key(), "done") || !strings.Contains(steps[0].Next.Key(), "c-done") {
		t.Fatalf("both parts must advance: %s", steps[0].Next.Key())
	}
}

// TestComposeBlocksWhenInputSideNotEnabled: if the input sharer has no
// matching transition, the composed step does not exist.
func TestComposeBlocksWhenInputSideNotEnabled(t *testing.T) {
	producer := &scriptAuto{
		name: "prod",
		sig:  map[string]Kind{"msg": Output},
		init: st("p0", func() []Step {
			return []Step{{Ev: Event{Name: "msg", Params: []int{9}}, Next: st("p1", func() []Step { return nil })}}
		}),
	}
	consumer := &scriptAuto{
		name: "cons",
		sig:  map[string]Kind{"msg": Input},
		init: st("c0", func() []Step { return nil }), // not input-enabled (a modeling bug)
	}
	c := Compose("t", nil, producer, consumer)
	if steps := c.Initial()[0].Steps(); len(steps) != 0 {
		t.Fatalf("composed steps = %d, want none", len(steps))
	}
}

// TestComposeHidesActions: hidden actions become internal.
func TestComposeHidesActions(t *testing.T) {
	a := &scriptAuto{
		name: "a",
		sig:  map[string]Kind{"x": Output},
		init: st("a0", func() []Step { return nil }),
	}
	c := Compose("t", []string{"x"}, a)
	if ActionKind(c, "x") != Internal {
		t.Fatal("hidden action not internal")
	}
}

// TestComposeRejectsTwoOutputs: two components outputting the same
// action name is a configuration bug.
func TestComposeRejectsTwoOutputs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	mk := func(n string) *scriptAuto {
		return &scriptAuto{name: n, sig: map[string]Kind{"x": Output}, init: st(n, func() []Step { return nil })}
	}
	Compose("t", nil, mk("a"), mk("b"))
}

// TestChannelSemantics pins loss and duplication on the packet channel.
func TestChannelSemantics(t *testing.T) {
	ch := &PacketChannel{Tag: "c", Universe: [][]int{{1}}}
	s0 := ch.Initial()[0]
	var afterSend State
	for _, step := range s0.Steps() {
		if step.Ev.Key() == "c.send(1)" {
			afterSend = step.Next
		}
	}
	if afterSend == nil {
		t.Fatal("channel refuses sends")
	}
	var delivered, dropped State
	for _, step := range afterSend.Steps() {
		switch step.Ev.Key() {
		case "c.deliver(1)":
			delivered = step.Next
		case "c.drop(1)":
			dropped = step.Next
		}
	}
	if delivered == nil || dropped == nil {
		t.Fatal("channel lacks deliver/drop transitions")
	}
	// Delivery does not consume: the packet can deliver again (dup).
	again := false
	for _, step := range delivered.Steps() {
		if step.Ev.Key() == "c.deliver(1)" {
			again = true
		}
	}
	if !again {
		t.Fatal("delivery consumed the packet; duplication impossible")
	}
	// Drop consumes.
	for _, step := range dropped.Steps() {
		if step.Ev.Key() == "c.deliver(1)" {
			t.Fatal("dropped packet still deliverable")
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{Name: "Send", Params: []int{1, 2}}
	if e.String() != "Send(1,2)" || e.Key() != "Send(1,2)" {
		t.Fatalf("String = %q", e.String())
	}
	if (Event{Name: "Tick"}).String() != "Tick" {
		t.Fatal("no-param event renders wrong")
	}
}
