package core

import (
	"testing"

	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

// TestPlainMembersSpeakTheTable: 64 plain FUNC members on the scale
// stack (the vsync stack without total order) casting 32 B rounds, the
// shape of the benchmark's sim64_vsync. A plain member's stack runs
// every cast, and the signature table is its header codec: at least 95 %
// of the casts leave its net exit compressed, and every one of those
// arrives compressed and is rebuilt by the table in front of the stack.
// The rest of the wires — gossip, credit, acknowledgments, membership —
// ride as TLV.
func TestPlainMembersSpeakTheTable(t *testing.T) {
	const members, rounds = 64, 20
	names := []string{layers.PartialAppl, layers.Membership, layers.Suspect, layers.Local,
		layers.Collect, layers.Frag, layers.Pt2ptw, layers.Mflow, layers.Pt2pt, layers.Mnak, layers.Bottom}
	g, err := NewClusterGroup(members, netsim.Ethernet100(), 1, names, stack.Func, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		for r := 0; r < members; r++ {
			buf := make([]byte, 32)
			buf[0], buf[1] = byte(i), byte(r)
			g.Do(r, int64(i)*200_000, func() { g.Members[r].Cast(buf) })
		}
	}
	g.Run(int64(rounds)*200_000 + int64(1e9))
	var casts, compressed, upFull, rebuilt, delivered int64
	for _, m := range g.Members {
		st := m.eng.Stats()
		casts += st.DnFull
		compressed += st.DataCompressed
		upFull += st.UpFull
		rebuilt += st.Uncompressed
		delivered += m.Stats().CastsDelivered
	}
	if want := int64(members * members * rounds); delivered != want {
		t.Fatalf("%d deliveries, want %d", delivered, want)
	}
	t.Logf("%d of %d casts left compressed; %d of %d arrivals rebuilt by the table", compressed, casts, rebuilt, upFull)
	if float64(compressed) < 0.95*float64(casts) {
		t.Errorf("%d of %d casts left the net exit compressed, want at least 95 %%", compressed, casts)
	}
	if want := compressed * (members - 1); rebuilt != want {
		t.Errorf("%d arrivals were rebuilt by the table, want one per compressed cast and receiver, %d", rebuilt, want)
	}
}
