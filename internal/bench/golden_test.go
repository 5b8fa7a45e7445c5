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
