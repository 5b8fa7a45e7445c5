package core

import (
	"fmt"
	"testing"

	"ensemble/internal/ir"

	"ensemble/internal/event"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

// Partition-heal tests: split a group, let both sides install their own
// views, heal the network, and require the merge protocol to reunite
// everyone in one agreed view with working traffic.

func viewsAgree(t *testing.T, ms []*Member) event.ViewID {
	t.Helper()
	id := ms[0].View().ID
	for _, m := range ms[1:] {
		if m.View().ID != id {
			t.Fatalf("views disagree: %v vs %v", m.View(), ms[0].View())
		}
	}
	return id
}

// runUntilReunited advances the group in chunks of virtual time until
// every member shares one view of the expected size. Healing under loss
// is eventually-convergent: a lost view announcement sends the victim
// through suspicion, self-healing, and a merge round, which takes a few
// extra windows.
func runUntilReunited(t *testing.T, g *ClusterGroup, want int, chunks int) {
	t.Helper()
	for i := 0; i < chunks; i++ {
		g.Run(int64(30e9))
		id := g.Members[0].View().ID
		ok := g.Members[0].View().N() == want
		for _, m := range g.Members[1:] {
			if m.View().ID != id {
				ok = false
			}
		}
		if ok {
			return
		}
	}
	for r, m := range g.Members {
		t.Logf("member %d: %v %v", r, m.View(), debugVars(m))
	}
	t.Fatalf("group never reunited into %d members", want)
}

// debugVars dumps the membership and suspect IR state of a member.
func debugVars(m *Member) map[string]any {
	out := map[string]any{}
	for _, st := range m.stk.States() {
		if st.Name() != "membership" && st.Name() != "suspect" {
			continue
		}
		sm, ok := st.(ir.StateModel)
		if !ok {
			continue
		}
		for _, v := range sm.IRVars() {
			if v.Get != nil {
				out[st.Name()+"."+v.Name] = v.Get()
			} else {
				arr := make([]int64, m.view.N())
				for i := range arr {
					arr[i] = v.GetAt(int64(i))
				}
				out[st.Name()+"."+v.Name] = arr
			}
		}
	}
	return out
}

func TestPartitionHealSymmetric(t *testing.T) {
	g, err := NewClusterGroup(4, netsim.Profile{Latency: 1000}, 51, layers.StackVsync(), stack.Imp, func(rank int) Handlers {
		return Handlers{}
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(int64(1e9))

	// Split {addr1, addr2} | {addr3, addr4}.
	g.Cluster.Net().Partition(
		[]event.Addr{g.Members[0].addr, g.Members[1].addr},
		[]event.Addr{g.Members[2].addr, g.Members[3].addr},
	)
	g.Run(int64(30e9))
	if n := g.Members[0].View().N(); n != 2 {
		t.Fatalf("side A view %v, want 2 members", g.Members[0].View())
	}
	if n := g.Members[2].View().N(); n != 2 {
		t.Fatalf("side B view %v, want 2 members", g.Members[2].View())
	}
	sideA := viewsAgree(t, g.Members[:2])
	sideB := viewsAgree(t, g.Members[2:])
	if sideA == sideB {
		t.Fatal("partition sides share a view id")
	}

	// Heal: the coordinators discover each other and merge.
	g.Cluster.Net().SetFilter(nil)
	runUntilReunited(t, g, 4, 4)

	id := viewsAgree(t, g.Members)
	if id.Seq <= sideA.Seq || id.Seq <= sideB.Seq {
		t.Fatalf("merged seq %d does not supersede both partitions (%d, %d)", id.Seq, sideA.Seq, sideB.Seq)
	}

	// Traffic flows in the merged view, totally ordered again.
	delivered := make([]int, 4)
	for r, m := range g.Members {
		r := r
		m.h.OnCast = func(int, []byte) { delivered[r]++ }
	}
	for i := 0; i < 10; i++ {
		for _, m := range g.Members {
			m.Cast([]byte(fmt.Sprintf("merged-%d", i)))
		}
	}
	g.Run(int64(20e9))
	for r, d := range delivered {
		if d != 40 {
			t.Fatalf("member %d delivered %d post-merge casts, want 40 (all: %v)", r, d, delivered)
		}
	}
}

func TestPartitionHealSingleton(t *testing.T) {
	// One member is isolated, self-heals to a singleton view, then the
	// network heals and it rejoins.
	g, err := NewClusterGroup(3, netsim.Profile{Latency: 1000}, 53, layers.StackVsync(), stack.Imp, func(rank int) Handlers {
		return Handlers{}
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(int64(1e9))
	g.Cluster.Net().Partition(
		[]event.Addr{g.Members[0].addr, g.Members[1].addr},
		[]event.Addr{g.Members[2].addr},
	)
	g.Run(int64(30e9))
	if g.Members[2].View().N() != 1 {
		t.Fatalf("isolated member's view %v, want singleton", g.Members[2].View())
	}
	g.Cluster.Net().SetFilter(nil)
	runUntilReunited(t, g, 3, 4)
}

func TestPartitionHealUnderLoss(t *testing.T) {
	// The merge control traffic itself crosses a lossy network: probes
	// and grants are retried until the handshake lands.
	g, err := NewClusterGroup(4, netsim.Lossy(0.15), 57, layers.StackVsync(), stack.Imp, func(rank int) Handlers {
		return Handlers{}
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(int64(2e9))
	g.Cluster.Net().Partition(
		[]event.Addr{g.Members[0].addr, g.Members[1].addr},
		[]event.Addr{g.Members[2].addr, g.Members[3].addr},
	)
	g.Run(int64(40e9))
	g.Cluster.Net().SetFilter(nil)
	runUntilReunited(t, g, 4, 10)
}

func TestThreeWayPartitionHeal(t *testing.T) {
	g, err := NewClusterGroup(3, netsim.Profile{Latency: 1000}, 59, layers.StackVsync(), stack.Imp, func(rank int) Handlers {
		return Handlers{}
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(int64(1e9))
	g.Cluster.Net().Partition(
		[]event.Addr{g.Members[0].addr},
		[]event.Addr{g.Members[1].addr},
		[]event.Addr{g.Members[2].addr},
	)
	g.Run(int64(30e9))
	for r, m := range g.Members {
		if m.View().N() != 1 {
			t.Fatalf("member %d not a singleton: %v", r, m.View())
		}
	}
	g.Cluster.Net().SetFilter(nil)
	runUntilReunited(t, g, 3, 8)
}
