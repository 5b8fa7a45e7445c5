package opt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/layer"
	"ensemble/internal/layers"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// These tests realize the paper's central claim operationally: the
// machine-generated bypass is semantically equal to the original
// protocol stack. Two two-member systems — one pair of MACH engines, one
// pair of plain stacks — receive the identical operation sequence over
// an identical perfect network; their delivery streams and their final
// IR-visible layer states must match exactly, even though the engines
// route most events through compiled bypass code and compressed headers.

type recorded struct {
	member  int
	origin  int
	cast    bool
	payload string
}

// plainPair is the reference system: two stacks wired back to back.
type plainPair struct {
	stks  [2]stack.Stack
	log   []recorded
	bytes int64
	// drop, when set, discards member's n-th outgoing wire instead of
	// delivering it — the deterministic loss both systems share.
	drop func(member, n int) bool
	sent [2]int
}

func newPlainPair(t *testing.T, names []string, mode stack.Mode) *plainPair {
	t.Helper()
	p := &plainPair{}
	for m := 0; m < 2; m++ {
		m := m
		cfg := layer.DefaultConfig(testView(2, m))
		stk, err := stack.Build(names, cfg, mode, stack.Callbacks{
			App: func(ev *event.Event) {
				if (ev.Type == event.ECast || ev.Type == event.ESend) && ev.ApplMsg {
					p.log = append(p.log, recorded{
						member: m, origin: ev.Peer, cast: ev.Type == event.ECast,
						payload: string(ev.Msg.Payload),
					})
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
				wire := w.Bytes()
				p.bytes += int64(len(wire))
				n := p.sent[m]
				p.sent[m]++
				if p.drop != nil && p.drop(m, n) {
					return
				}
				// Perfect link: deliver synchronously to the other side.
				other, err := transport.Unmarshal(wire)
				if err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				p.stks[1-m].DeliverUp(other)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		p.stks[m] = stk
	}
	return p
}

// enginePair is the optimized system under test.
type enginePair struct {
	engs  [2]*Engine
	log   []recorded
	bytes int64
	// drop mirrors plainPair.drop: semantic equality makes the two
	// systems' wire sequences correspond one to one, so dropping by
	// (member, ordinal) loses the same logical message on both sides.
	drop func(member, n int) bool
	sent [2]int
}

func newEnginePair(t *testing.T, names []string, mode stack.Mode) *enginePair {
	t.Helper()
	p := &enginePair{}
	for m := 0; m < 2; m++ {
		m := m
		cfg := layer.DefaultConfig(testView(2, m))
		eng, err := NewEngine(names, cfg, mode)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		eng.Deliver = func(origin int, payload []byte, cast bool) {
			p.log = append(p.log, recorded{member: m, origin: origin, cast: cast, payload: string(payload)})
		}
		eng.SendWire = func(cast bool, dst int, wire []byte) {
			p.bytes += int64(len(wire))
			n := p.sent[m]
			p.sent[m]++
			if p.drop != nil && p.drop(m, n) {
				return
			}
			// Snapshot: the wire is only valid during this callback, and
			// delivering synchronously can trigger further sends that
			// reuse the engine's marshal buffer.
			p.engs[1-m].Packet(append([]byte(nil), wire...))
		}
		p.engs[m] = eng
	}
	return p
}

// testView builds a view of n members with the given rank.
func testView(n, rank int) *event.View {
	addrs := make([]event.Addr, n)
	for i := range addrs {
		addrs[i] = event.Addr(i + 1)
	}
	return event.NewView("opt", 1, addrs, rank)
}

// op is one step of the generated workload.
type op struct {
	member int
	cast   bool
	dst    int
	size   int
	mark   string
}

func genOps(rng *rand.Rand, n int, maxSize int) []op {
	ops := make([]op, n)
	for i := range ops {
		o := op{member: rng.Intn(2), cast: rng.Intn(2) == 0, size: rng.Intn(maxSize)}
		o.dst = 1 - o.member
		o.mark = fmt.Sprintf("op%d", i)
		ops[i] = o
	}
	return ops
}

func payloadFor(o op) []byte {
	p := make([]byte, max(o.size, len(o.mark)))
	copy(p, o.mark)
	return p
}

// snapshotStates captures every IR-visible variable of every layer.
func snapshotStates(states []layer.State, n int64) map[string]any {
	out := map[string]any{}
	for _, st := range states {
		sm, ok := st.(ir.StateModel)
		if !ok {
			continue
		}
		for _, v := range sm.IRVars() {
			key := st.Name() + "." + v.Name
			if v.Get != nil {
				out[key] = v.Get()
				continue
			}
			vals := make([]int64, n)
			for i := int64(0); i < n; i++ {
				vals[i] = v.GetAt(i)
			}
			out[key] = vals
		}
	}
	return out
}

func runEquivalence(t *testing.T, names []string, mode stack.Mode, ops []op, sweeps int) {
	t.Helper()
	runEquivalenceDrop(t, names, mode, ops, sweeps, nil)
}

// runEquivalenceDrop is runEquivalence with deterministic wire loss: the
// drop predicate (by sender and wire ordinal) is applied identically to
// both systems, so retransmission machinery fires on both and the
// delivery and state equality checks still apply. It returns the engine
// pair so dispatch tests can assert which paths routed the traffic.
func runEquivalenceDrop(t *testing.T, names []string, mode stack.Mode, ops []op, sweeps int, drop func(member, n int) bool) *enginePair {
	t.Helper()
	plain := newPlainPair(t, names, mode)
	engined := newEnginePair(t, names, mode)
	plain.drop, engined.drop = drop, drop

	apply := func(i int) {
		o := ops[i]
		p := payloadFor(o)
		if o.cast {
			plain.stks[o.member].SubmitDn(event.CastEv(p))
			engined.engs[o.member].Cast(payloadFor(o))
		} else {
			plain.stks[o.member].SubmitDn(event.SendEv(o.dst, p))
			engined.engs[o.member].Send(o.dst, payloadFor(o))
		}
		if sweeps > 0 && i%sweeps == sweeps-1 {
			now := int64(i) * 1000
			plain.stks[0].DeliverUp(event.TimerEv(now))
			plain.stks[1].DeliverUp(event.TimerEv(now))
			engined.engs[0].Timer(now)
			engined.engs[1].Timer(now)
		}
		// Each operation is one input burst of each member's.
		for m := 0; m < 2; m++ {
			plain.stks[m].SubmitDn(event.BurstEndEv())
			engined.engs[m].Submit(event.BurstEndEv())
		}
	}
	for i := range ops {
		apply(i)
	}

	if !reflect.DeepEqual(plain.log, engined.log) {
		min := len(plain.log)
		if len(engined.log) < min {
			min = len(engined.log)
		}
		for i := 0; i < min; i++ {
			if plain.log[i] != engined.log[i] {
				t.Fatalf("delivery %d diverges:\n plain: %+v\n  mach: %+v", i, plain.log[i], engined.log[i])
			}
		}
		t.Fatalf("delivery counts diverge: plain %d, mach %d", len(plain.log), len(engined.log))
	}

	for m := 0; m < 2; m++ {
		sp := snapshotStates(plain.stks[m].States(), 2)
		se := snapshotStates(engined.engs[m].States(), 2)
		if !reflect.DeepEqual(sp, se) {
			t.Fatalf("member %d final state diverges:\n plain: %v\n  mach: %v", m, sp, se)
		}
	}

	st := engined.engs[0].Stats()
	t.Logf("engine0: dnBypass=%d dnFull=%d upBypass=%d upFull=%d uncompressed=%d; bytes plain=%d mach=%d",
		st.DnBypass, st.DnFull, st.UpBypass, st.UpFull, st.Uncompressed, plain.bytes, engined.bytes)
	if st.DnBypass+st.DnFull > 20 && st.DnBypass == 0 && names[0] != layers.PartialAppl {
		t.Error("bypass never taken on the down path")
	}
	if engined.bytes >= plain.bytes {
		t.Errorf("compressed traffic (%d bytes) is not smaller than full traffic (%d bytes)", engined.bytes, plain.bytes)
	}
	return engined
}

func TestEngineEquivalenceStack4(t *testing.T) {
	for _, mode := range []stack.Mode{stack.Imp, stack.Func} {
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(101))
			runEquivalence(t, layers.Stack4(), mode, genOps(rng, 800, 200), 13)
		})
	}
}

func TestEngineEquivalenceStack10(t *testing.T) {
	for _, mode := range []stack.Mode{stack.Imp, stack.Func} {
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(202))
			runEquivalence(t, layers.Stack10(), mode, genOps(rng, 800, 200), 13)
		})
	}
}

func TestEngineEquivalenceStackVsync(t *testing.T) {
	// The full 12-layer membership stack, timers included: heartbeats,
	// stability gossip, and the membership layers' pass-through bypass.
	rng := rand.New(rand.NewSource(505))
	runEquivalence(t, layers.StackVsync(), stack.Imp, genOps(rng, 600, 120), 9)
}

func TestEngineEquivalenceWithFragmentingPayloads(t *testing.T) {
	// Payloads beyond MaxFragSize force the frag CCP to fail: the engine
	// must route those through the full stack and still agree with the
	// reference system.
	rng := rand.New(rand.NewSource(303))
	ops := genOps(rng, 300, 200)
	for i := 0; i < len(ops); i += 17 {
		ops[i].size = 8192*2 + rng.Intn(5000)
	}
	runEquivalence(t, layers.Stack10(), stack.Imp, ops, 11)
}

func TestEngineEquivalenceWindowPressure(t *testing.T) {
	// A burst of sends larger than the pt2ptw window forces queueing:
	// the dn CCP fails mid-burst and recovers after window acks.
	rng := rand.New(rand.NewSource(404))
	ops := genOps(rng, 600, 60)
	for i := range ops {
		ops[i].cast = false
		ops[i].member = 0
		ops[i].dst = 1
	}
	runEquivalence(t, layers.Stack10(), stack.Imp, ops, 7)
}

// TestPartialBypassFires: the non-sequencer's casts take the second
// bypass path (wire specialized, self-delivery through the stack).
func TestPartialBypassFires(t *testing.T) {
	p := newEnginePair(t, layers.Stack10(), stack.Func)
	for i := 0; i < 100; i++ {
		p.engs[1].Cast([]byte("from the non-sequencer"))
		p.engs[0].Submit(event.BurstEndEv()) // the arrival's burst: the sequencer announces
	}
	st := p.engs[1].Stats()
	t.Logf("rank1 stats: %+v", st)
	if st.DnPartial < 90 {
		t.Fatalf("partial bypass barely used: %+v", st)
	}
	if st.DnBypass != 0 {
		t.Fatalf("full bypass fired for unorderable self-delivery: %+v", st)
	}
	// Everything still delivered everywhere: 100 at the sequencer (via
	// uncompress + ordering) and 100 self-deliveries at rank 1 (via the
	// announcement round trip) = at least 200 log entries.
	if len(p.log) < 200 {
		t.Fatalf("only %d deliveries", len(p.log))
	}
}
