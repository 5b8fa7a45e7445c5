package stack

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/layer"
)

// Scripted layers for the differential test: what a handler does is a
// fixed function of (layer, direction, event tag), drawn once from the
// seed, so two stacks built from one script behave alike exactly as long
// as they invoke the handlers alike.

type action uint8

const (
	actPass   action = iota // hand the event on
	actBounce               // send one child back the way the event came
	actSplit                // two children onward
	actAbsorb               // nothing comes out
	actFanUp                // three children up
	actFanDn                // four children down
	actBoth                 // one child up and one down, up emitted first
	actBothDn               // one child down and one up, down emitted first
	numActions
)

const tagSlots = 8

// script[layer][dir][tag%tagSlots] is the action a handler takes.
type script [][2][tagSlots]action

func randomScript(rng *rand.Rand, layers int) script {
	sc := make(script, layers)
	for k := range sc {
		for d := 0; d < 2; d++ {
			for t := 0; t < tagSlots; t++ {
				// Half of all handlers pass through, as most of a real
				// stack does for most events.
				if rng.Intn(2) == 0 {
					sc[k][d][t] = actPass
				} else {
					sc[k][d][t] = action(rng.Intn(int(numActions)))
				}
			}
		}
	}
	return sc
}

// An event's tag rides in Time and its remaining budget in Peer: every
// child costs one unit of budget, and an event without budget is passed
// on, so every run ends.
func scriptedEv(dir event.Dir, tag int64, budget int) *event.Event {
	ev := event.Alloc()
	ev.Dir, ev.Type, ev.Time, ev.Peer = dir, event.EAck, tag, budget
	return ev
}

type scriptLayer struct {
	k   int
	sc  script
	log *[]string
}

func (l *scriptLayer) Name() string { return fmt.Sprintf("s%d", l.k) }

func (l *scriptLayer) HandleUp(ev *event.Event, snk layer.Sink) { l.handle(ev, snk, event.Up) }
func (l *scriptLayer) HandleDn(ev *event.Event, snk layer.Sink) { l.handle(ev, snk, event.Dn) }

func (l *scriptLayer) handle(ev *event.Event, snk layer.Sink, dir event.Dir) {
	*l.log = append(*l.log, fmt.Sprintf("L%d %v %d", l.k, dir, ev.Time))
	pass := func(e *event.Event, d event.Dir) {
		e.Dir = d
		if d == event.Up {
			snk.PassUp(e)
		} else {
			snk.PassDn(e)
		}
	}
	act := l.sc[l.k][dir][ev.Time%tagSlots]
	if ev.Peer == 0 || act == actPass {
		pass(ev, dir)
		return
	}
	child := func(i int64, d event.Dir) { pass(scriptedEv(d, ev.Time*5+i, ev.Peer-1), d) }
	back := event.Up + event.Dn - dir
	switch act {
	case actBounce:
		child(1, back)
	case actSplit:
		child(1, dir)
		child(2, dir)
	case actFanUp:
		child(1, event.Up)
		child(2, event.Up)
		child(3, event.Up)
	case actFanDn:
		child(1, event.Dn)
		child(2, event.Dn)
		child(3, event.Dn)
		child(4, event.Dn)
	case actBoth:
		child(1, event.Up)
		child(2, event.Dn)
	case actBothDn:
		child(1, event.Dn)
		child(2, event.Up)
	}
	event.Free(ev)
}

// scriptedRun builds a stack over sc with mk, drives it with the inputs
// (an up-going input enters at the bottom) and returns one log of
// handler invocations and exits. An application exit whose tag is a
// multiple of three submits a response from inside the callback, and a
// network exit whose tag is a multiple of five delivers one, so
// re-entrant applications are part of every run.
func scriptedRun(sc script, inputs []*event.Event, mk func([]layer.State, Callbacks) Stack) []string {
	var log []string
	states := make([]layer.State, len(sc))
	for k := range states {
		states[k] = &scriptLayer{k: k, sc: sc, log: &log}
	}
	var s Stack
	s = mk(states, Callbacks{
		App: func(e *event.Event) {
			log = append(log, fmt.Sprintf("app %d", e.Time))
			if e.Peer > 0 && e.Time%3 == 0 {
				s.SubmitDn(scriptedEv(event.Dn, e.Time*5, e.Peer-1))
			}
		},
		Net: func(e *event.Event) {
			log = append(log, fmt.Sprintf("net %d", e.Time))
			if e.Peer > 0 && e.Time%5 == 0 {
				s.DeliverUp(scriptedEv(event.Up, e.Time*5+1, e.Peer-1))
			}
		},
	})
	for _, ev := range inputs {
		log = append(log, fmt.Sprintf("in %v %d", ev.Dir, ev.Time))
		if ev.Dir == event.Dn {
			s.SubmitDn(ev)
		} else {
			s.DeliverUp(ev)
		}
	}
	return log
}

// TestFuncMatchesRecursion: over seeded random stacks of 1-12 scripted
// layers and random input sequences, the index-driven traversal invokes
// the same handlers in the same order, and routes the same exits in the
// same order, as the recursion it replaced.
func TestFuncMatchesRecursion(t *testing.T) {
	steps := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := randomScript(rng, 1+int(seed%12))
		type in struct {
			dir event.Dir
			tag int64
		}
		ins := make([]in, 1+rng.Intn(8))
		for i := range ins {
			ins[i] = in{event.Dir(rng.Intn(2)), int64(1 + rng.Intn(1000))}
		}
		inputs := func() []*event.Event {
			evs := make([]*event.Event, len(ins))
			for i, x := range ins {
				evs[i] = scriptedEv(x.dir, x.tag, 6)
			}
			return evs
		}
		want := scriptedRun(sc, inputs(), func(st []layer.State, cb Callbacks) Stack { return newRecStack(st, cb) })
		got := scriptedRun(sc, inputs(), func(st []layer.State, cb Callbacks) Stack { return FromStates(st, Func, cb) })
		steps += len(want)
		if !reflect.DeepEqual(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d (%d layers): logs diverge at step %d of %d/%d:\n got %v\nwant %v",
				seed, len(sc), i, len(got), len(want), tail(got, i), tail(want, i))
		}
	}
	// The scripts must actually branch: a run of pass-throughs would
	// agree under any traversal.
	if steps < 100000 {
		t.Fatalf("only %d log steps over all seeds: the scripts do not exercise the recursion", steps)
	}
}

func tail(log []string, from int) []string {
	lo, hi := max(from-3, 0), min(from+5, len(log))
	return log[lo:hi]
}

// TestFuncReentrantRoute: a callback that re-enters the stack during
// route sees its own application's exits routed before the outer
// application's remaining ones.
func TestFuncReentrantRoute(t *testing.T) {
	states := []layer.State{&tagLayer{"a"}, &splitLayer{tagLayer{"S"}}}
	var order []string
	var s Stack
	s = FromStates(states, Func, Callbacks{
		App: func(e *event.Event) { order = append(order, "app:"+string(e.Msg.Payload)) },
		Net: func(e *event.Event) {
			order = append(order, "net:"+string(e.Msg.Payload))
			if len(order) == 1 {
				up := event.Alloc()
				up.Dir, up.Type = event.Up, event.ECast
				s.DeliverUp(up)
				s.SubmitDn(event.CastEv([]byte("r")))
			}
		},
	})
	s.SubmitDn(event.CastEv(nil))
	want := []string{"net:av0", "app:S^a^", "net:rav0", "net:rav1", "net:av1"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("exit order = %v, want %v", order, want)
	}
}

func TestFuncOneLayer(t *testing.T) {
	for _, mode := range []Mode{Imp, Func} {
		apps, nets := runStack(t, mode, []layer.State{&bounceLayer{tagLayer{"B"}}}, event.CastEv([]byte("x")))
		if !reflect.DeepEqual(apps, []string{"x"}) || !reflect.DeepEqual(nets, []string{"x"}) {
			t.Fatalf("%v one-layer bounce: apps %v nets %v", mode, apps, nets)
		}
	}
}

// TestFuncLinearPassAllocs: once the per-layer lists have grown, a
// 12-layer pass in either direction allocates nothing.
func TestFuncLinearPassAllocs(t *testing.T) {
	if event.PoolDebugEnabled() {
		t.Skip("pool debugging allocates every event")
	}
	states := make([]layer.State, 12)
	for i := range states {
		states[i] = &tagLayer{"t"}
	}
	exits := 0
	s := FromStates(states, Func, Callbacks{
		App: func(*event.Event) { exits++ },
		Net: func(*event.Event) { exits++ },
	})
	// Not from the pool: Free ignores it, so one event serves every pass.
	ev := &event.Event{Type: event.EAck}
	pass := func() {
		ev.Dir = event.Dn
		s.SubmitDn(ev)
		ev.Dir = event.Up
		s.DeliverUp(ev)
	}
	pass()
	if n := testing.AllocsPerRun(100, pass); n != 0 {
		t.Fatalf("linear 12-layer pass: %v allocs per run, want 0", n)
	}
	if exits != 2*102 {
		t.Fatalf("%d exits, want %d", exits, 2*102)
	}
}
