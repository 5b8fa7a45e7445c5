package opt

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/layers"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// The N-member differential harness. The two-member pairs of
// engine_test.go cannot show what most arrivals in a larger group are:
// with one peer, that peer is either the sequencer or receives only the
// sequencer's stamped casts. Here a non-sequencer receives another
// non-sequencer's unordered cast and a third party's order
// announcement — the arrivals the bypass hands to the stack mid-way.

// testNet is the perfect network both systems run over: a queue of
// wires, drained after every operation, so delivery is never re-entrant.
type testNet struct {
	n int
	q []testWire
	// overtake puts newly sent wires at the head of the queue: what a
	// delivery triggers arrives before what was already in flight, so an
	// order announcement reaches the third members before its cast.
	overtake bool
	// drop discards member's k-th outgoing wire (all its copies). Semantic
	// equality makes the two systems' wire sequences correspond one to
	// one, so the same logical message is lost on both.
	drop  func(member, k int) bool
	sent  []int
	bytes int64
}

type testWire struct {
	to   int
	wire []byte
}

func (n *testNet) send(from int, cast bool, dst int, wire []byte) {
	n.bytes += int64(len(wire))
	k := n.sent[from]
	n.sent[from]++
	if n.drop != nil && n.drop(from, k) {
		return
	}
	// The wire is only valid during the send callback: snapshot it.
	wire = append([]byte(nil), wire...)
	var out []testWire
	for to := 0; to < n.n; to++ {
		if to != from && (cast || to == dst) {
			out = append(out, testWire{to, wire})
		}
	}
	if n.overtake {
		n.q = append(out, n.q...)
	} else {
		n.q = append(n.q, out...)
	}
}

func (n *testNet) drain(deliver func(to int, wire []byte)) {
	for len(n.q) > 0 {
		w := n.q[0]
		n.q = n.q[1:]
		deliver(w.to, w.wire)
	}
}

// system is one of the two systems under comparison.
type system struct {
	net  *testNet
	log  []recorded
	stks []stack.Stack // the members' stacks (an engine's is its fallback stack)
	engs []*Engine     // nil for the plain system
}

func newSystem(t *testing.T, names []string, mode stack.Mode, n int, engines bool) *system {
	t.Helper()
	s := &system{net: &testNet{n: n, sent: make([]int, n)}}
	for m := 0; m < n; m++ {
		m := m
		cfg := layer.DefaultConfig(testView(n, m))
		record := func(origin int, payload []byte, cast bool) {
			s.log = append(s.log, recorded{member: m, origin: origin, cast: cast, payload: string(payload)})
		}
		if engines {
			eng, err := NewEngine(names, cfg, mode)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			eng.Deliver = record
			eng.SendWire = func(cast bool, dst int, wire []byte) { s.net.send(m, cast, dst, wire) }
			s.engs = append(s.engs, eng)
			s.stks = append(s.stks, eng.Stack())
			continue
		}
		stk, err := stack.Build(names, cfg, mode, stack.Callbacks{
			App: func(ev *event.Event) {
				if (ev.Type == event.ECast || ev.Type == event.ESend) && ev.ApplMsg {
					record(ev.Peer, ev.Msg.Payload, ev.Type == event.ECast)
				}
			},
			Net: func(ev *event.Event) {
				if ev.Type != event.ECast && ev.Type != event.ESend {
					return
				}
				var w transport.Writer
				if err := transport.Marshal(ev, m, &w); err != nil {
					t.Fatalf("marshal: %v", err)
				}
				s.net.send(m, ev.Type == event.ECast, ev.Peer, w.Bytes())
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.stks = append(s.stks, stk)
	}
	return s
}

// drain delivers every queued wire and then ends every member's input
// burst (event.EBurstEnd), until the network is quiet.
func (s *system) drain(t *testing.T) {
	for {
		s.net.drain(func(to int, wire []byte) {
			if s.engs != nil {
				s.engs[to].Packet(wire)
				return
			}
			ev, err := transport.Unmarshal(wire)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			s.stks[to].DeliverUp(ev)
		})
		for m := range s.stks {
			if s.engs != nil {
				s.engs[m].Submit(event.BurstEndEv())
			} else {
				s.stks[m].SubmitDn(event.BurstEndEv())
			}
		}
		if len(s.net.q) == 0 {
			return
		}
	}
}

func (s *system) apply(t *testing.T, o op) {
	switch {
	case s.engs != nil && o.cast:
		s.engs[o.member].Cast(payloadFor(o))
	case s.engs != nil:
		s.engs[o.member].Send(o.dst, payloadFor(o))
	case o.cast:
		s.stks[o.member].SubmitDn(event.CastEv(payloadFor(o)))
	default:
		s.stks[o.member].SubmitDn(event.SendEv(o.dst, payloadFor(o)))
	}
	s.drain(t)
}

func (s *system) sweep(t *testing.T, now int64) {
	for m := range s.stks {
		s.stks[m].DeliverUp(event.TimerEv(now))
	}
	s.drain(t)
}

// groupScenario shapes one differential run.
type groupScenario struct {
	name     string
	drop     func(member, k int) bool
	overtake func(i int) bool // ops during which sent wires overtake queued ones
	blockAt  int              // op before which the sequencer sees EBlock; 0 for never
}

func genGroupOps(rng *rand.Rand, count, n, maxSize int) []op {
	ops := make([]op, count)
	for i := range ops {
		o := op{member: rng.Intn(n), cast: rng.Intn(4) != 0, size: rng.Intn(maxSize), mark: fmt.Sprintf("op%d", i)}
		o.dst = (o.member + 1 + rng.Intn(n-1)) % n
		ops[i] = o
	}
	return ops
}

// runGroupEquivalence drives n plain stacks and n engines with the same
// operations over the same network and requires, after every operation,
// the same deliveries in the same order and the same value of every
// IR-visible variable of every layer of every member.
func runGroupEquivalence(t *testing.T, names []string, mode stack.Mode, n int, ops []op, sweeps int, sc groupScenario) *system {
	t.Helper()
	plain := newSystem(t, names, mode, n, false)
	mach := newSystem(t, names, mode, n, true)
	plain.net.drop, mach.net.drop = sc.drop, sc.drop
	totalAt := slices.Index(names, layers.Total)
	for i, o := range ops {
		if sc.blockAt > 0 && i == sc.blockAt {
			// A flush begins at the sequencer: total stops stamping.
			for _, s := range []*system{plain, mach} {
				blk := event.Alloc()
				blk.Dir, blk.Type = event.Up, event.EBlock
				s.stks[0].UpAt(totalAt, blk)
				s.drain(t)
			}
		}
		over := sc.overtake != nil && sc.overtake(i)
		plain.net.overtake, mach.net.overtake = over, over
		plain.apply(t, o)
		mach.apply(t, o)
		if sweeps > 0 && i%sweeps == sweeps-1 {
			plain.sweep(t, int64(i)*1000)
			mach.sweep(t, int64(i)*1000)
		}
		if !reflect.DeepEqual(plain.log, mach.log) {
			for j := 0; j < min(len(plain.log), len(mach.log)); j++ {
				if plain.log[j] != mach.log[j] {
					t.Fatalf("after op %d (%+v): delivery %d diverges:\n plain: %+v\n  mach: %+v", i, o, j, plain.log[j], mach.log[j])
				}
			}
			t.Fatalf("after op %d (%+v): plain delivered %d, mach %d", i, o, len(plain.log), len(mach.log))
		}
		for m := 0; m < n; m++ {
			sp := snapshotStates(plain.stks[m].States(), int64(n))
			se := snapshotStates(mach.stks[m].States(), int64(n))
			if !reflect.DeepEqual(sp, se) {
				t.Fatalf("after op %d (%+v): member %d state diverges:\n plain: %v\n  mach: %v", i, o, m, sp, se)
			}
		}
	}
	if mach.net.bytes >= plain.net.bytes {
		t.Errorf("compressed traffic (%d bytes) is not smaller than full traffic (%d bytes)", mach.net.bytes, plain.net.bytes)
	}
	return mach
}

func sumStats(s *system) EngineStats {
	var sum EngineStats
	for _, e := range s.engs {
		st := e.Stats()
		sum.DnBypass += st.DnBypass
		sum.DnPartial += st.DnPartial
		sum.DnFull += st.DnFull
		sum.UpBypass += st.UpBypass
		sum.UpPartial += st.UpPartial
		sum.UpFull += st.UpFull
		sum.Uncompressed += st.Uncompressed
		sum.Undecodable += st.Undecodable
	}
	return sum
}

func TestGroupEquivalence(t *testing.T) {
	const n = 4
	scenarios := []groupScenario{
		{name: "clean"},
		{name: "drops", drop: func(member, k int) bool { return k%11 == 7 }},
		// Every third operation's consequences overtake it: at the two
		// members that are neither origin nor sequencer the order
		// announcement arrives before its cast (total.earlyOrders).
		{name: "early_orders", overtake: func(i int) bool { return i%3 == 0 }},
		{name: "sequencer_blocked", blockAt: 150},
	}
	stacks := []struct {
		name  string
		names []string
	}{{"Stack10", layers.Stack10()}, {"StackVsync", layers.StackVsync()}}
	for _, st := range stacks {
		for _, mode := range []stack.Mode{stack.Func, stack.Imp} {
			for _, sc := range scenarios {
				t.Run(st.name+"/"+mode.String()+"/"+sc.name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(707))
					mach := runGroupEquivalence(t, st.names, mode, n, genGroupOps(rng, 300, n, 150), 9, sc)
					sum := sumStats(mach)
					t.Logf("engines: %+v", sum)
					if sum.UpPartial == 0 {
						t.Error("no arrival was handed to the stack mid-way")
					}
					if sum.Undecodable != 0 {
						t.Errorf("%d undecodable arrivals on a perfect network", sum.Undecodable)
					}
				})
			}
		}
	}
}

// TestPartialUpBypassFires is TestPartialBypassFires seen from the
// receiving side: in a group every cast of a non-sequencer arrives
// unordered, and every order announcement has a header total has no
// common case for — and every one of them runs the compiled code of the
// layers below total and enters the stack there. None is expanded in
// front of the whole stack.
func TestPartialUpBypassFires(t *testing.T) {
	const n, rounds = 4, 50
	s := newSystem(t, layers.Stack10(), stack.Func, n, true)
	cast := func(m, i int) {
		s.apply(t, op{member: m, cast: true, mark: fmt.Sprintf("r%dm%d", i, m)})
	}
	for i := 0; i < rounds; i++ {
		for m := 0; m < n; m++ {
			cast(m, i)
		}
	}
	sum := sumStats(s)
	t.Logf("steady state: %+v", sum)
	// Per round: the sequencer's cast arrives stamped at n-1 members (the
	// whole bypass); each of the n-1 others' arrives unordered at n-1
	// members, and is answered by an announcement that arrives at n-1.
	unordered := int64(rounds * (n - 1) * (n - 1))
	orders := unordered
	stamped := int64(rounds * (n - 1))
	if sum.Uncompressed != 0 || sum.UpFull != 0 {
		t.Errorf("%d arrivals entered the stack at the bottom (%d of them compressed), want none", sum.UpFull, sum.Uncompressed)
	}
	if sum.UpPartial != unordered+orders {
		t.Errorf("handed off %d arrivals, want %d unordered casts + %d announcements", sum.UpPartial, unordered, orders)
	}
	if sum.UpBypass != stamped+unordered+orders {
		t.Errorf("UpBypass = %d, want %d", sum.UpBypass, stamped+unordered+orders)
	}
	if want := rounds * n * n; len(s.log) != want {
		t.Fatalf("%d deliveries, want %d", len(s.log), want)
	}

	// A lost cast makes the origin's next one arrive ahead of a gap: its
	// common case fails at mnak, so only bottom's compiled code runs and
	// the event enters the stack at mnak, which buffers it, asks for the
	// missing one, and delivers both in order.
	before := sumStats(s)
	seen := len(s.log)
	lost := s.net.sent[2]
	s.net.drop = func(member, k int) bool { return member == 2 && k == lost }
	cast(2, rounds)
	if got := len(s.log) - seen; got != 0 {
		// Nobody but the origin has the cast, so the sequencer has not
		// ordered it.
		t.Fatalf("%d deliveries of a cast that reached nobody", got)
	}
	cast(2, rounds+1)
	for i := 1; i <= 3; i++ {
		s.sweep(t, int64(i)*layer.DefaultConfig(testView(n, 0)).SweepInterval)
	}
	after := sumStats(s)
	if after.Uncompressed != before.Uncompressed {
		t.Errorf("the out-of-order arrival was expanded in front of the whole stack")
	}
	if after.UpPartial-before.UpPartial < int64(n-1) {
		t.Errorf("the out-of-order arrivals were not handed off: UpPartial %d -> %d", before.UpPartial, after.UpPartial)
	}
	if got := len(s.log) - seen; got != 2*n {
		t.Fatalf("%d deliveries after the repair, want %d", got, 2*n)
	}
	perMember := map[int][]string{}
	for _, r := range s.log[seen:] {
		perMember[r.member] = append(perMember[r.member], r.payload[:len(fmt.Sprintf("r%dm2", rounds))])
	}
	for m := 0; m < n; m++ {
		if want := []string{fmt.Sprintf("r%dm2", rounds), fmt.Sprintf("r%dm2", rounds+1)}; !reflect.DeepEqual(perMember[m], want) {
			t.Errorf("member %d delivered %v, want %v", m, perMember[m], want)
		}
	}
}
