package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"ensemble/internal/core"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

// goldenTraceSHA256 is the hash of the cluster delivery trace (every
// transmission's time, endpoints, length and CRC) of the 8-member MACH
// seed-7 workload below. It pins every byte members put on the
// simulated wire. Recorded twice: at commit 699768e, the last that
// still carried the 0xB7/0xB8 encoders beside the production 0xB9 path
// (be412b95…), and again when the sequencer's order announcements
// began to leave compressed like every other recognized control shape:
// those wires shrink, and the delivery check below holds the run to the
// interpreted stack's behaviour.
const goldenTraceSHA256 = "e725214f35eddfad73a866bc937a541360d25137ba681d9aed7ce53f8414e93c"

// productionRun runs 8 production-configured members (cross-frame
// chains, adaptive flush, adaptive quantum; the MACH bypass when
// optimized) through four all-cast rounds with a forced generation bump
// in the middle. It returns Cluster.TraceString() and each member's
// deliveries, in order.
func productionRun(t *testing.T, optimized bool) (trace string, delivered [][]string) {
	t.Helper()
	const members = 8
	delivered = make([][]string, members)
	build := func(rank int) core.Handlers {
		return core.Handlers{OnCast: func(origin int, payload []byte) {
			delivered[rank] = append(delivered[rank], fmt.Sprintf("%d:%x", origin, payload[:2]))
		}}
	}
	newGroup := core.NewClusterGroup
	if optimized {
		newGroup = func(n int, p netsim.Profile, seed int64, names []string, mode stack.Mode, b func(int) core.Handlers) (*core.ClusterGroup, error) {
			return core.NewOptimizedClusterGroup(n, p, seed, names, mode, b)
		}
	}
	g, err := newGroup(members, netsim.Ethernet100(), 7, layers.Stack10(), stack.Func, build)
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
	return g.Cluster.TraceString(), delivered
}

// TestGoldenProductionTrace hashes the MACH run's trace, and holds the
// run to the plain FUNC stack's behaviour on the same seed: every
// member delivers the same casts in the same order.
func TestGoldenProductionTrace(t *testing.T) {
	trace, mach := productionRun(t, true)
	if trace == "" {
		t.Fatal("empty trace")
	}
	sum := sha256.Sum256([]byte(trace))
	if got := hex.EncodeToString(sum[:]); got != goldenTraceSHA256 {
		t.Errorf("production trace moved: sha256 %s, want %s (%d trace bytes)", got, goldenTraceSHA256, len(trace))
	}
	_, plain := productionRun(t, false)
	for r := range plain {
		if len(plain[r]) != 32 {
			t.Fatalf("member %d of the FUNC run delivered %d casts, want 32", r, len(plain[r]))
		}
		if !reflect.DeepEqual(mach[r], plain[r]) {
			t.Errorf("member %d delivers differently under MACH:\n mach %v\n func %v", r, mach[r], plain[r])
		}
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
