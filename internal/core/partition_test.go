package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

// TestPartitionedMemberCannotPoisonSurvivors is the regression test for
// a subtle distributed bug this reproduction's own testing uncovered
// (the kind of bug §3 argues formal checking is for): a member that is
// partitioned away keeps running, suspects everyone else, and installs
// its own singleton next view — which carries the *same view sequence
// number* as the surviving group's next view. If the wire epoch tag
// identified views by sequence number alone, the partition's protocol
// traffic (claiming rank 0 of its own view) would be accepted by the
// survivors and poison the coordinator's slot in their reliability
// sequence space, silently stalling total-order delivery. The epoch tag
// therefore carries the coordinator address as well.
func TestPartitionedMemberCannotPoisonSurvivors(t *testing.T) {
	deliveries := make([]int, 4)
	g, err := NewClusterGroup(4, netsim.Lossy(0.05), 11, layers.StackVsync(), stack.Imp, func(rank int) Handlers {
		return Handlers{OnCast: func(origin int, payload []byte) { deliveries[rank]++ }}
	})
	if err != nil {
		t.Fatal(err)
	}
	partitioned := false
	for i := 0; i < 30; i++ {
		i := i
		for r, m := range g.Members {
			r, m := r, m
			g.Do(r, int64(i)*200e6, func() {
				if r == 3 && partitioned {
					return
				}
				m.Cast([]byte(fmt.Sprintf("tick %d from %d", i, r)))
			})
		}
	}
	// Member 3 loses its receive path but — crucially — keeps running
	// and transmitting, like a real partitioned process.
	g.Run(int64(2e9))
	partitioned = true
	g.Cluster.Net().Detach(g.Members[3].Addr())
	g.Run(int64(38e9))

	if deliveries[0] == 0 {
		t.Fatal("no deliveries at all")
	}
	for r := 1; r < 3; r++ {
		if deliveries[r] != deliveries[0] {
			t.Fatalf("survivor deliveries diverge: %v (partition traffic accepted?)", deliveries)
		}
	}
	v0 := g.Members[0].View()
	for r := 1; r < 3; r++ {
		if g.Members[r].View().ID != v0.ID {
			t.Fatalf("survivors in different views: %v vs %v", g.Members[r].View(), v0)
		}
	}
	if v0.N() != 3 {
		t.Fatalf("final view %v (deliveries %v), want 3 members", v0, deliveries)
	}
}

// TestCoordinatorCrash kills rank 0 — simultaneously the membership
// coordinator AND the total-order sequencer. The next-lowest survivor
// must coordinate the view change, and ordering must restart under the
// new view's sequencer. (Casts the dead sequencer never ordered are
// dropped across the change — the documented simplification.)
func TestCoordinatorCrash(t *testing.T) {
	deliveries := make([]int, 3)
	g, err := NewClusterGroup(3, netsim.Profile{Latency: 1000}, 31, layers.StackVsync(), stack.Imp, func(rank int) Handlers {
		return Handlers{OnCast: func(origin int, payload []byte) { deliveries[rank]++ }}
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Members[0].Cast([]byte("pre"))
	g.Run(int64(1e9))

	// Rank 0 dies (stops participating entirely).
	g.Members[0].exited = true
	g.Cluster.Net().Detach(g.Members[0].addr)
	g.Run(int64(30e9))

	for r := 1; r < 3; r++ {
		v := g.Members[r].View()
		if v.N() != 2 {
			t.Fatalf("member %d view %v, want 2 members", r, v)
		}
	}
	if g.Members[1].View().ID != g.Members[2].View().ID {
		t.Fatalf("survivors in different views: %v vs %v",
			g.Members[1].View(), g.Members[2].View())
	}
	// Ordering restarts under the new sequencer (old rank 1 → new rank 0).
	pre1, pre2 := deliveries[1], deliveries[2]
	for i := 0; i < 20; i++ {
		g.Members[1].Cast([]byte{byte(i)})
		g.Members[2].Cast([]byte{byte(i)})
	}
	g.Run(int64(20e9))
	if deliveries[1]-pre1 != 40 || deliveries[2]-pre2 != 40 {
		t.Fatalf("post-crash deliveries: m1 +%d m2 +%d, want +40 each",
			deliveries[1]-pre1, deliveries[2]-pre2)
	}
}

// TestCascadingCrashes: members fail one after another until only one
// remains; every surviving configuration must stay live.
func TestCascadingCrashes(t *testing.T) {
	g, err := NewClusterGroup(4, netsim.Profile{Latency: 1000}, 37, layers.StackVsync(), stack.Imp, func(rank int) Handlers {
		return Handlers{}
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(int64(1e9))
	for victim := 3; victim >= 1; victim-- {
		g.Members[victim].exited = true
		g.Cluster.Net().Detach(g.Members[victim].addr)
		g.Run(int64(30e9))
		want := victim
		if got := g.Members[0].View().N(); got != want {
			t.Fatalf("after crashing member %d, member 0's view has %d members, want %d",
				victim, got, want)
		}
	}
	// The last member stands alone and can still "multicast" to itself.
	delivered := 0
	g.Members[0].h.OnCast = func(int, []byte) { delivered++ }
	g.Members[0].Cast([]byte("alone"))
	g.Run(int64(5e9))
	if delivered != 1 {
		t.Fatalf("singleton self-delivery = %d, want 1", delivered)
	}
}

// TestMemberSurvivesGarbagePackets: random bytes injected at a member's
// endpoint must be counted as strays, never panic, never disturb clean
// traffic.
func TestMemberSurvivesGarbagePackets(t *testing.T) {
	delivered := 0
	g, err := NewClusterGroup(2, netsim.Profile{Latency: 1000}, 41, layers.Stack10(), stack.Imp, func(rank int) Handlers {
		if rank != 1 {
			return Handlers{}
		}
		return Handlers{OnCast: func(int, []byte) { delivered++ }}
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	out := outsider(g)
	for i := 0; i < 3000; i++ {
		garbage := make([]byte, rng.Intn(64))
		rng.Read(garbage)
		out.Send(out.Addr(), g.Members[1].addr, garbage)
	}
	g.Members[0].Cast([]byte("clean"))
	g.Run(int64(5e9))
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
	if g.Members[1].Stats().StrayPackets < 2000 {
		t.Fatalf("strays=%d, expected most garbage counted", g.Members[1].Stats().StrayPackets)
	}
}
