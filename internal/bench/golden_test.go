package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ensemble/internal/core"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

// goldenTraceSHA256 is the hash of the cluster delivery trace (every
// transmission's time, endpoints, length and CRC) of the 8-member MACH
// seed-7 workload below, recorded at commit 699768e — the last commit
// that still carried the 0xB7/0xB8 encoders beside the production 0xB9
// path. It pins every byte members put on the simulated wire.
const goldenTraceSHA256 = "be412b95fd79f4eb88be27720b6f67c5bd1e7c1616d37c2ae48902eb6d71a912"

// TestGoldenProductionTrace runs 8 production-configured members (MACH
// bypass, cross-frame chains, adaptive flush, adaptive quantum) through
// four all-cast rounds with a forced generation bump in the middle and
// hashes Cluster.TraceString().
func TestGoldenProductionTrace(t *testing.T) {
	const members = 8
	g, err := core.NewOptimizedClusterGroup(members, netsim.Ethernet100(), 7, layers.Stack10(), stack.Func, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Cluster.EnableTrace()
	g.Cluster.EnableAdaptiveQuantum(400_000, 100_000_000)
	for i := 0; i < 4; i++ {
		at := int64(i) * 200_000
		for r := 0; r < members; r++ {
			r := r
			buf := make([]byte, 64)
			buf[0], buf[1] = byte(i), byte(r)
			g.Do(r, at, func() { g.Members[r].Cast(buf) })
			if i == 1 {
				g.Do(r, at+100_000, func() { g.Members[r].Batcher().BumpGenerations() })
			}
		}
	}
	g.Run(int64(200e6))
	trace := g.Cluster.TraceString()
	if trace == "" {
		t.Fatal("empty trace")
	}
	sum := sha256.Sum256([]byte(trace))
	if got := hex.EncodeToString(sum[:]); got != goldenTraceSHA256 {
		t.Fatalf("production trace moved: sha256 %s, want %s (%d trace bytes)", got, goldenTraceSHA256, len(trace))
	}
}

// The large-group membership traces: 17 and 64 members on the vsync
// stack, a graceful leave of an interior relay (rank 3), then a crash
// of a leaf with a cast submitted while it is being detected. Recorded
// at commit ac970d7, the last with a coordinator-direct path beside the
// tree: views of 16 and more took the tree there (hence 17, so that the
// second change still runs in a view of 16), and every byte and its
// order must survive any refactoring of the tree's helpers.
var goldenVsyncTraceSHA256 = map[int]string{
	17: "a7561c8147395228bff19d844475c189911d29e4951c1a11d66aecb2e4c5ce3d",
	64: "e5d92ee2f0390f4067b2f857462bb6a8649256e61cf0f03da7fc99af05947a84",
}

func TestGoldenViewChangeTrace(t *testing.T) {
	for _, n := range []int{17, 64} {
		g, err := core.NewClusterGroup(n, netsim.Profile{Latency: 50_000}, 61, layers.StackVsync(), stack.Func, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.Cluster.EnableTrace()
		leaver, crashed := 3, n-2
		g.Run(int64(200e6))
		g.Do(1, 0, func() { g.Members[1].Cast([]byte("before")) })
		g.Do(leaver, 0, func() { g.Members[leaver].Leave() })
		g.Run(int64(300e6))
		g.Do(crashed, 0, func() { g.Members[crashed].Shutdown() })
		g.Do(2, int64(500e6), func() { g.Members[2].Cast([]byte("during")) })
		g.Run(int64(2e9))
		for r, m := range g.Members {
			if r != leaver && r != crashed && m.View().N() != n-2 {
				t.Fatalf("%d members: member %d ended in a view of %d", n, r, m.View().N())
			}
		}
		sum := sha256.Sum256([]byte(g.Cluster.TraceString()))
		if got := hex.EncodeToString(sum[:]); got != goldenVsyncTraceSHA256[n] {
			t.Fatalf("%d-member view-change trace moved: sha256 %s, want %s", n, got, goldenVsyncTraceSHA256[n])
		}
	}
}
