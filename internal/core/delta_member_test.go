package core

import (
	"fmt"
	"testing"

	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

// This test pins down that the compressed (0xC0) wire images the bypass
// engine emits actually ride the wire delta-encoded and come back
// byte-exact.

// TestMemberDeltaFramesOnWire: an optimized (MACH-config) group casts a
// stream; the batchers report delta-encoded sub-packets, every cast is
// delivered, and nothing lands in stray accounting — i.e. the delta
// round trip is lossless end to end, protocol included.
func TestMemberDeltaFramesOnWire(t *testing.T) {
	const members, msgs = 4, 32
	delivered := make([]int, members)
	g, err := NewOptimizedClusterGroup(members, netsim.Profile{Latency: 50_000}, 11,
		layers.Stack10(), stack.Func, func(rank int) Handlers {
			return Handlers{OnCast: func(int, []byte) { delivered[rank]++ }}
		})
	if err != nil {
		t.Fatal(err)
	}
	// Casts go out in bursts of four per entry so frames carry several
	// sub-packets — the shape batching exists for.
	for i := 0; i < msgs; i += 4 {
		for r := range g.Members {
			r, m := r, g.Members[r]
			base := i
			g.Do(r, int64(i)*1e6, func() {
				for k := 0; k < 4; k++ {
					m.Cast([]byte(fmt.Sprintf("m%d-%d", r, base+k)))
				}
			})
		}
	}
	g.Run(int64(10e9))

	want := msgs * members // total order includes the member's own casts
	for r, m := range g.Members {
		if delivered[r] != want {
			t.Fatalf("member %d delivered %d casts, want %d", r, delivered[r], want)
		}
		bs := m.Batcher().Stats()
		if bs.DeltaSubs == 0 {
			t.Fatalf("member %d: no sub-packets were delta-encoded (SubPackets=%d)", r, bs.SubPackets)
		}
		if st := m.Stats(); st.StrayPackets != 0 {
			t.Fatalf("member %d: %d stray packets under delta framing", r, st.StrayPackets)
		}
	}
}
