package opt_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"ensemble/internal/bench"
	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/layer"
	"ensemble/internal/layers"
	"ensemble/internal/opt"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// TestEveryStackComposesItsCast: a cast's self-delivery copy either
// composes through the layers above local or the rank has no cast bypass
// at all, so every stack a member runs must compose its cast at every
// rank kind — the sequencer, the first non-sequencer and the last rank —
// at every group size the benchmarks use.
func TestEveryStackComposesItsCast(t *testing.T) {
	stacks := map[string][]string{
		"Stack4":     layers.Stack4(),
		"StackFifo":  layers.StackFifo(),
		"Stack10":    layers.Stack10(),
		"StackVsync": layers.StackVsync(),
		"ScaleStack": bench.ScaleStack(),
	}
	for name, names := range stacks {
		for _, n := range []int{2, 8, 64} {
			for _, rank := range []int{0, 1, n - 1} {
				t.Run(fmt.Sprintf("%s/n%d/rank%d", name, n, rank), func(t *testing.T) {
					if _, err := opt.ComposeDn(names, ir.DnCast, rank, n); err != nil {
						t.Fatalf("no cast bypass: %v", err)
					}
				})
			}
		}
	}
}

// TestEverySignatureDecodes: an arrival runs its compiled path whole or
// takes the stack, so every signature a member of the view can send —
// data and control — must have an up path at every receiving rank. A
// path that neither delivers nor consumes (today the sequencer's own
// total/Order at rank 0, which never arrives: casts do not loop back)
// sends every arrival to the stack and counts it as a miss.
func TestEverySignatureDecodes(t *testing.T) {
	stacks := map[string][]string{
		"Stack4":     layers.Stack4(),
		"StackFifo":  layers.StackFifo(),
		"Stack10":    layers.Stack10(),
		"StackVsync": layers.StackVsync(),
		"ScaleStack": bench.ScaleStack(),
	}
	var noCommonCase int
	for name, names := range stacks {
		for _, n := range []int{2, 8} {
			sigs := opt.Sendable(names, n)
			addrs := make([]event.Addr, n)
			for i := range addrs {
				addrs[i] = event.Addr(i + 1)
			}
			for rank := 0; rank < n; rank++ {
				eng, err := opt.NewEngine(names, layer.DefaultConfig(event.NewView("cover", 1, addrs, rank)), stack.Func)
				if err != nil {
					t.Fatal(err)
				}
				for id, sig := range sigs {
					th := eng.UpTheorem(id)
					if th == nil {
						t.Errorf("%s n%d rank %d: no up path decodes %s %s.%s", name, n, rank, sig.Path, sig.Entries[0].Layer, sig.Entries[0].Variant)
						continue
					}
					if th.Delivered || th.Consumed {
						continue
					}
					noCommonCase++
					t.Logf("%s n%d rank %d: %s %s.%s has no common case", name, n, rank, sig.Path, sig.Entries[0].Layer, sig.Entries[0].Variant)
					before := eng.Stats()
					if !eng.Packet(compressed(id, sig, (rank+1)%n)) {
						t.Fatalf("%s n%d rank %d: the arrival did not decode", name, n, rank)
					}
					after := eng.Stats()
					var missed int64
					for p := range after.PathMisses {
						missed += after.PathMisses[p] - before.PathMisses[p]
					}
					if after.UpBypass != before.UpBypass || after.Uncompressed != before.Uncompressed+1 ||
						after.UpFull != before.UpFull+1 || missed != 1 ||
						after.PathHits[opt.PathFullStack] != before.PathHits[opt.PathFullStack]+1 {
						t.Errorf("%s n%d rank %d: the arrival was not one miss that took the stack: %+v -> %+v", name, n, rank, before, after)
					}
				}
			}
		}
	}
	if noCommonCase == 0 {
		t.Error("no signature without a common case came up: the arm that sends every arrival to the stack went untested")
	}
}

// compressed is a compressed arrival of a signature from sender, every
// varying field 0, with a short payload.
func compressed(id uint16, sig opt.WireSig, sender int) []byte {
	wire := []byte{transport.WireCompressed, byte(id), byte(id >> 8)}
	wire = binary.AppendUvarint(wire, uint64(sender))
	for range sig.Varying() {
		wire = binary.AppendVarint(wire, 0)
	}
	return append(wire, "payload"...)
}
