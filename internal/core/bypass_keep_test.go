package core

import (
	"fmt"
	"reflect"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

// TestBypassKeepsCastsForDepartedOrigin pins bypass ≡ stack at the one
// place a delivered cast still matters to the protocol: mnak keeps every
// delivered cast until it is stable, so that survivors can repair each
// other when the origin is gone (mnakState.logs). A member that
// delivered over the compiled up path must hold the same copies a member
// running the stack would.
//
// The shape: an optimized vsync group; the origin's casts reach two of
// the three other members — over their bypasses — and never the third;
// then the origin is partitioned away before any of it is stable. The
// survivors' flush finds the third member short, it NAKs everyone, and
// only copies kept by the two bypass receivers can serve it. All three
// must install the same view having delivered the same casts.
func TestBypassKeepsCastsForDepartedOrigin(t *testing.T) {
	const n, missed = 4, 5
	logs := make([][]string, n)
	g, err := NewOptimizedClusterGroup(n, netsim.Profile{Latency: 1000}, 5, layers.StackVsync(), stack.Func,
		func(rank int) Handlers {
			return Handlers{OnCast: func(origin int, payload []byte) {
				logs[rank] = append(logs[rank], fmt.Sprintf("%d:%s", origin, payload))
			}}
		})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 is the sequencer, so its casts are the ones receivers admit
	// to the up bypass on this stack; it is also the origin that departs.
	origin, short := g.Members[0], g.Members[3]
	// No flush holds: each phase below must be on the wire when it ends.
	origin.Batcher().SetClock(nil)
	g.Run(int64(1e9)) // the failure detector's first rounds keep the up bypass shut
	for i := 0; i < 3; i++ {
		origin.Cast([]byte(fmt.Sprintf("warm%d", i)))
	}
	g.Run(int64(1e6))
	before := g.Members[1].Engine().Stats().UpBypass

	g.Cluster.Net().SetFilter(func(from, to event.Addr) bool {
		return !(from == origin.Addr() && to == short.Addr())
	})
	for i := 0; i < missed; i++ {
		origin.Cast([]byte(fmt.Sprintf("missed%d", i)))
	}
	g.Run(int64(1e6))
	if got := g.Members[1].Engine().Stats().UpBypass - before; got < missed {
		t.Fatalf("member 1 took the up bypass for %d of the %d casts: the test no longer exercises it", got, missed)
	}
	if len(logs[3]) != 3 || len(logs[1]) != 3+missed {
		t.Fatalf("before the partition: member 1 delivered %d, member 3 delivered %d; want %d and 3", len(logs[1]), len(logs[3]), 3+missed)
	}

	// The origin is cut off both ways (and keeps running, alone).
	g.Cluster.Net().SetFilter(func(from, to event.Addr) bool {
		return from != origin.Addr() && to != origin.Addr()
	})
	g.Run(int64(60e9))

	v := g.Members[1].View()
	if v.N() != n-1 {
		t.Fatalf("survivors' view is %v, want %d members", v, n-1)
	}
	for r := 2; r < n; r++ {
		if g.Members[r].View().ID != v.ID {
			t.Fatalf("survivors in different views: member %d in %v, member 1 in %v", r, g.Members[r].View(), v)
		}
		if !reflect.DeepEqual(logs[r], logs[1]) {
			t.Fatalf("survivors delivered different casts:\n member 1: %v\n member %d: %v", logs[1], r, logs[r])
		}
	}
	if len(logs[1]) != 3+missed {
		t.Fatalf("survivors delivered %d casts, want %d", len(logs[1]), 3+missed)
	}
}
