package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"regexp"
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
// interpreted stack's behaviour. Recorded a third time when the
// sequencer began to announce runs of casts, one order per run, a
// fourth when prefix subs gained the run form (a changed field, then the
// unchanged run after it), and a fifth when the field-level sub delta
// was deleted and every sub began to ride full or in a prefix form: the
// last two moved sizes and CRCs only, which the skeleton hash below
// shows.
const goldenTraceSHA256 = "4bd86e576c5f4041119abbecb756562cd01ac48cb2713a4eef3cd6cd59efc369"

// goldenTraceSkeletonSHA256 hashes the same trace with every length and
// CRC field stripped (traceSkeleton): who sent what to whom, and when.
// An encoding change that moves only bytes moves the hash above and not
// this one; one that moves a schedule moves both.
const goldenTraceSkeletonSHA256 = "8d1e8daee49f17075af9825b9852c2b143b598221e2efa09fb3dbe97953c6f33"

// traceSkeleton strips the n= and crc= fields from every line of a
// Cluster trace, leaving its schedule.
func traceSkeleton(trace string) string {
	return traceBytesField.ReplaceAllString(trace, "")
}

var traceBytesField = regexp.MustCompile(` n=\d+ crc=[0-9a-f]+`)

// checkTraceHashes compares a trace's full and skeleton hashes with the
// pinned ones.
func checkTraceHashes(t *testing.T, what, trace, full, skeleton string) {
	t.Helper()
	sum := sha256.Sum256([]byte(trace))
	if got := hex.EncodeToString(sum[:]); got != full {
		t.Errorf("%s moved: sha256 %s, want %s (%d trace bytes)", what, got, full, len(trace))
	}
	sum = sha256.Sum256([]byte(traceSkeleton(trace)))
	if got := hex.EncodeToString(sum[:]); got != skeleton {
		t.Errorf("%s schedule moved: skeleton sha256 %s, want %s", what, got, skeleton)
	}
}

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
	checkTraceHashes(t, "production trace", trace, goldenTraceSHA256, goldenTraceSkeletonSHA256)
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
// order must survive any refactoring of the tree's helpers. Recorded
// again when the sequencer began to announce runs of casts, a graceful
// leaver began to go quiet after its leave, a blocked member began to
// announce its cast count at each sweep, and mflow began to release its
// queue on a block. Recorded a third time, with the skeleton hashes
// unchanged, when prefix subs gained the run form, a fourth time, the
// skeletons again unchanged, when plain members began to send the
// shapes of the signature table compressed, and a fifth, the skeletons
// unchanged still, when the field-level sub delta was deleted.
var goldenVsyncTraceSHA256 = map[int][2]string{ // full, skeleton
	17: {"37d02f4f4d0bfaa2b7053a3451a4b50eaf97f80f847ca3efe198c6b4476e8907", "ed4041e52f92589634558917ac4aaa1556076573dbaa9082579c881e2afb865a"},
	64: {"a366c113edcea06a379e4dded8ae97cc6cbeecca60b363e1f45f620aaa06d1e5", "2df5774fb6c86e7da9ff6c70f816eecdc26d77f100a72bc3538bfafc51a7b15c"},
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
		want := goldenVsyncTraceSHA256[n]
		checkTraceHashes(t, fmt.Sprintf("%d-member view-change trace", n), g.Cluster.TraceString(), want[0], want[1])
	}
}
