package core

import (
	"fmt"
	"testing"

	"ensemble/internal/check"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/spec"
	"ensemble/internal/stack"
)

// hierRun builds a groups x per hierarchy, injects a staggered cast from
// every listed origin, runs it for d virtual nanoseconds, and returns
// the per-member delivery logs plus the cluster's delivery trace.
func hierRun(t *testing.T, groups, per int, seed int64, origins []int, d int64, workers int) ([][]string, string) {
	t.Helper()
	n := groups * per
	logs := make([][]string, n)
	hg, err := NewHierGroup(groups, per, netsim.Ethernet100(), seed, layers.StackVsync(), stack.Func,
		func(global int) Handlers {
			return Handlers{OnCast: func(origin int, payload []byte) {
				logs[global] = append(logs[global], fmt.Sprintf("%d:%s", origin, payload))
			}}
		})
	if err != nil {
		t.Fatal(err)
	}
	hg.Cluster.EnableTrace()
	for i, o := range origins {
		hg.Cast(o, int64(1e6)*int64(i+1), []byte(fmt.Sprintf("m%d", i)))
	}
	if workers > 1 {
		hg.RunConcurrent(d, workers)
	} else {
		hg.Run(d)
	}
	return logs, hg.Cluster.TraceString()
}

// TestHierGroupDelivery: a cast from any member reaches every member of
// every leaf group exactly once, tagged with the origin's global rank —
// through its own group, up through the relay, across the spine, and
// down into the other groups.
func TestHierGroupDelivery(t *testing.T) {
	origins := []int{0, 5, 11} // includes a relay leaf (global 0) and plain members
	logs, _ := hierRun(t, 4, 3, 21, origins, int64(3e9), 1)
	for global, log := range logs {
		if len(log) != len(origins) {
			t.Fatalf("member %d delivered %d messages, want %d: %v", global, len(log), len(origins), log)
		}
		// One FIFO monitor per origin stream: a delivery must be the
		// origin's cast, once, so len(origins) accepted deliveries are
		// all of them.
		streams := map[int]*spec.FifoNetwork{}
		for i, o := range origins {
			streams[o] = &spec.FifoNetwork{}
			if err := streams[o].Step(spec.Event{Name: "Send", Params: []int{0, i}}); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range log {
			var o, i int
			if _, err := fmt.Sscanf(e, "%d:m%d", &o, &i); err != nil || streams[o] == nil {
				t.Fatalf("member %d delivered %q, which no origin cast: %v", global, e, log)
			}
			if err := streams[o].Step(spec.Event{Name: "Deliver", Params: []int{0, i}}); err != nil {
				t.Fatalf("member %d: %v: %v", global, err, log)
			}
		}
	}
}

// TestHierGroupDeterministicReplay: the full hierarchy — three leaf
// groups of stacks, a spine group, and the Post-based relay handoffs —
// produces a byte-identical delivery trace in sequential and concurrent
// mode, with the scheduler sharded one shard per group.
func TestHierGroupDeterministicReplay(t *testing.T) {
	origins := []int{0, 4, 7, 2}
	seqLogs, seqTrace := hierRun(t, 3, 3, 33, origins, int64(2e9), 1)
	concLogs, concTrace := hierRun(t, 3, 3, 33, origins, int64(2e9), 4)
	if seqTrace != concTrace {
		t.Fatal("hierarchy traces diverge between Run and RunConcurrent")
	}
	if seqTrace == "" {
		t.Fatal("empty trace: hierarchy never ran")
	}
	if fmt.Sprint(seqLogs) != fmt.Sprint(concLogs) {
		t.Fatalf("delivery logs diverge:\nseq:  %v\nconc: %v", seqLogs, concLogs)
	}
	again, againTrace := hierRun(t, 3, 3, 33, origins, int64(2e9), 4)
	if againTrace != seqTrace || fmt.Sprint(again) != fmt.Sprint(seqLogs) {
		t.Fatal("same seed did not replay the same hierarchy run")
	}
}

// ---- relay-failure specification (internal/check) ----

// relayCastSpec models one hierarchy-wide cast as an I/O automaton: the
// message starts delivered in its origin group, must cross the spine
// via the origin group's relay (RelayUp), and reaches each other group
// through that group's relay (RelayDown). Relays may crash at any point
// (Crash, an input — the environment controls failures). The states are
// tiny on purpose: the automaton is the *delivery contract* the
// concrete 250-line relay implementation must refine, and bounded
// exploration discharges it exactly.
type relayCastSpec struct {
	groups, origin int
	failable       bool // whether Crash events are part of the instance
	initialRelays  uint32
}

type relayCastState struct {
	s         *relayCastSpec
	inSpine   bool
	delivered uint32
	relays    uint32
}

func (st relayCastState) Key() string {
	return fmt.Sprintf("spine=%t|d=%03b|r=%03b", st.inSpine, st.delivered, st.relays)
}

func (st relayCastState) Steps() []spec.Step {
	var out []spec.Step
	o := st.s.origin
	if !st.inSpine && st.relays&(1<<o) != 0 {
		next := st
		next.inSpine = true
		out = append(out, spec.Step{Ev: spec.Event{Name: "RelayUp", Params: []int{o}}, Next: next})
	}
	if st.inSpine {
		for h := 0; h < st.s.groups; h++ {
			if h == o || st.delivered&(1<<h) != 0 || st.relays&(1<<h) == 0 {
				continue
			}
			next := st
			next.delivered |= 1 << h
			out = append(out, spec.Step{Ev: spec.Event{Name: "RelayDown", Params: []int{h}}, Next: next})
		}
	}
	if st.s.failable {
		for r := 0; r < st.s.groups; r++ {
			if st.relays&(1<<r) == 0 {
				continue
			}
			next := st
			next.relays &^= 1 << r
			out = append(out, spec.Step{Ev: spec.Event{Name: "Crash", Params: []int{r}}, Next: next})
		}
	}
	return out
}

func (s *relayCastSpec) Name() string { return "relay-cast" }
func (s *relayCastSpec) Initial() []spec.State {
	return []spec.State{relayCastState{s: s, delivered: 1 << s.origin, relays: s.initialRelays}}
}
func (s *relayCastSpec) Signature() map[string]spec.Kind {
	return map[string]spec.Kind{
		"RelayUp":   spec.Output,
		"RelayDown": spec.Output,
		"Crash":     spec.Input,
	}
}

// TestHierRelayFailure: a leaf group whose spine-side relay dies mid-run
// becomes an orphan — the spine installs a new view without the relay,
// the surviving groups keep full cross-group delivery, and the orphan
// keeps intra-group delivery but sends and receives nothing across the
// spine. The delivery contract is first discharged on the bounded
// automaton above via internal/check, then the concrete run's outcome
// is matched against the automaton's reachable quiescent states.
func TestHierRelayFailure(t *testing.T) {
	const groups, per = 4, 4
	const crashed = 1 // group 1 loses its relay

	// (1) Model checks. Failure-free instance: the forwarding rules
	// cannot wedge short of full delivery.
	healthy := &relayCastSpec{groups: groups, origin: 0, failable: false, initialRelays: 1<<groups - 1}
	allDelivered := func(s spec.State) bool {
		return s.(relayCastState).delivered == 1<<groups-1
	}
	if err := check.CheckDeadlockFree(healthy, 1<<16, allDelivered); err != nil {
		t.Fatalf("failure-free relay spec wedges: %v", err)
	}
	// Crash-anywhere instance: cross-group delivery always goes through
	// the spine, and a group whose relay was down from the start can
	// never be delivered to (the orphan property).
	orphaned := &relayCastSpec{groups: groups, origin: 0, failable: true, initialRelays: (1<<groups - 1) &^ (1 << crashed)}
	survivorOutcome := false
	err := check.CheckInvariant(orphaned, 1<<16, func(s spec.State) error {
		st := s.(relayCastState)
		if st.delivered != 1<<st.s.origin && !st.inSpine {
			return fmt.Errorf("cross-group delivery without the spine (delivered=%b)", st.delivered)
		}
		if st.delivered&(1<<crashed) != 0 {
			return fmt.Errorf("delivered to the orphan group (delivered=%b)", st.delivered)
		}
		if st.delivered == (1<<groups-1)&^(1<<crashed) {
			survivorOutcome = true // the outcome the concrete run must reach
		}
		return nil
	})
	if err != nil {
		t.Fatalf("relay-failure invariant: %v", err)
	}
	if !survivorOutcome {
		t.Fatal("spec cannot even reach the all-survivors-delivered outcome")
	}

	// (2) The concrete run must refine that contract.
	n := groups * per
	delivered := make([]map[string]int, n)
	for i := range delivered {
		delivered[i] = map[string]int{}
	}
	hg, err := NewHierGroup(groups, per, netsim.Ethernet100(), 17, layers.StackVsync(), stack.Func,
		func(global int) Handlers {
			return Handlers{OnCast: func(origin int, payload []byte) {
				delivered[global][fmt.Sprintf("%d:%s", origin, payload)]++
			}}
		})
	if err != nil {
		t.Fatal(err)
	}
	// Healthy phase: a cast from group 0 reaches everyone.
	hg.Cast(1, int64(1e6), []byte("pre"))
	hg.Run(int64(3e9))
	for g := 0; g < groups; g++ {
		for i := 0; i < per; i++ {
			if delivered[g*per+i]["1:pre"] != 1 {
				t.Fatalf("member %d/%d missed the pre-failure cast", g, i)
			}
		}
	}

	// Kill group 1's spine-side relay on its own goroutine.
	hg.DoSpine(crashed, int64(1e6), func() { hg.Spine[crashed].Shutdown() })
	hg.Run(int64(30e9))
	for g := 0; g < groups; g++ {
		if g == crashed {
			continue
		}
		if got := hg.Spine[g].View().N(); got != groups-1 {
			t.Fatalf("spine relay %d sits in a view of %d after the crash, want %d", g, got, groups-1)
		}
	}

	// Post-failure cross-group cast from group 0: all survivors deliver,
	// the orphan group does not.
	hg.Cast(2, int64(1e6), []byte("post"))
	hg.Run(int64(5e9))
	observed := uint32(0)
	for g := 0; g < groups; g++ {
		for i := 0; i < per; i++ {
			c := delivered[g*per+i]["2:post"]
			if g == crashed {
				if c != 0 {
					t.Fatalf("orphan group delivered the post-failure cast (member %d/%d)", g, i)
				}
				continue
			}
			if c != 1 {
				t.Fatalf("survivor member %d/%d delivered post-failure cast %d times, want 1", g, i, c)
			}
		}
		if delivered[g*per]["2:post"] > 0 {
			observed |= 1 << g
		}
	}
	if observed != (1<<groups-1)&^(1<<crashed) {
		t.Fatalf("observed delivery mask %04b does not match the spec's survivor outcome", observed)
	}

	// The orphan group keeps intra-group delivery.
	orphanOrigin := crashed*per + 2
	hg.Cast(orphanOrigin, int64(1e6), []byte("intra"))
	hg.Run(int64(5e9))
	key := fmt.Sprintf("%d:intra", orphanOrigin)
	for i := 0; i < per; i++ {
		if delivered[crashed*per+i][key] != 1 {
			t.Fatalf("orphan member %d lost intra-group delivery", i)
		}
	}
	for g := 0; g < groups; g++ {
		if g == crashed {
			continue
		}
		for i := 0; i < per; i++ {
			if delivered[g*per+i][key] != 0 {
				t.Fatalf("orphan traffic escaped to group %d", g)
			}
		}
	}
}
