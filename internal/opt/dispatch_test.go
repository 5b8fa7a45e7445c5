package opt

import (
	"fmt"
	"math/rand"
	"testing"

	"ensemble/internal/layer"
	"ensemble/internal/layers"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// Table-driven discriminator coverage: one scenario per dispatch
// outcome. Each scenario shapes the workload so a specific path must
// route traffic, then reuses the equivalence harness — so beyond "the
// path fired", every scenario also proves the path delivered
// byte-identical payloads and left byte-identical layer state against
// the interpreted reference stacks.

// pathSums adds both engines' per-path counters.
func pathSums(p *enginePair) (hits, misses [NumPaths]int64, uncompressed int64) {
	for _, e := range p.engs {
		st := e.Stats()
		for i := 0; i < int(NumPaths); i++ {
			hits[i] += st.PathHits[i]
			misses[i] += st.PathMisses[i]
		}
		uncompressed += st.Uncompressed
	}
	return
}

// uniformOps builds n identical-shaped operations from one member.
func uniformOps(n, member int, cast bool, size int) []op {
	ops := make([]op, n)
	for i := range ops {
		o := op{member: member, cast: cast, dst: 1 - member, size: size, mark: fmt.Sprintf("op%d", i)}
		ops[i] = o
	}
	return ops
}

func TestDispatchOutcomes(t *testing.T) {
	scenarios := []struct {
		name   string
		ops    []op
		sweeps int
		drop   func(member, n int) bool
		// hit paths that must have routed at least one event, summed
		// over both engines; miss likewise for probed-and-failed.
		hit  []PathID
		miss []PathID
	}{
		{
			// The sequencer's casts take the fully specialized down path
			// (wire plus inline self-delivery); the peer's receive side
			// takes the cast bypass up.
			name: "cast_bypass",
			ops:  uniformOps(120, 0, true, 40),
			hit:  []PathID{PathDnCast, PathUpCast},
		},
		{
			// The non-sequencer cannot self-deliver out of order, so its
			// casts take the partial path: wire specialized, self-delivery
			// through the shared stack. At the sequencer the compressed
			// cast misses its CCP at total (ordering needs the stack) and
			// is handed off there; the order announcement that answers it
			// leaves compressed and is handed to total on arrival.
			name: "cast_partial",
			ops:  uniformOps(120, 1, true, 40),
			hit:  []PathID{PathDnCastPartial, PathDnCtrlOrder, PathUpHandoff},
			miss: []PathID{PathUpCast},
		},
		{
			// In-window pt2pt data rides the send bypass both ways; the
			// one-way flow never piggybacks, so the receiver's explicit
			// acknowledgments trip the control recognizer and the sender
			// consumes them on the compressed ack path.
			name:   "send_and_ack",
			ops:    uniformOps(160, 0, false, 40),
			sweeps: 11,
			hit:    []PathID{PathDnSend, PathUpSend, PathDnCtrlAck, PathUpAck},
		},
		{
			// Dropping a data wire opens a gap: the sweep retransmits
			// everything unacknowledged, compressed by the retransmission
			// recognizer. The gap-filling copy hits the up retransmission
			// CCP; the duplicates behind it miss and are expanded.
			name:   "retransmission",
			ops:    uniformOps(160, 0, false, 40),
			sweeps: 7,
			// Wire 6 is the last data send before the first sweep: the
			// receiver sits at a clean tail gap with an empty reorder
			// queue, so the sweep's copy of message 6 arrives as exactly
			// the next expected seqno — a retransmission CCP hit. The
			// sweep's copies of the already-delivered 4 and 5 are
			// duplicates — probed-and-missed at pt2pt, handed off there.
			drop: func(member, n int) bool {
				return member == 0 && n == 6
			},
			hit:  []PathID{PathDnCtrlRetrans, PathUpRetrans, PathUpHandoff},
			miss: []PathID{PathUpRetrans},
		},
		{
			// Payloads beyond the fragmenter's limit fail every down CCP:
			// the discriminator falls through to the interpreted stack.
			name: "full_stack_fallback",
			ops:  uniformOps(40, 0, true, 8192*2+100),
			hit:  []PathID{PathFullStack},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			p := runEquivalenceDrop(t, layers.Stack10(), stack.Func, sc.ops, sc.sweeps, sc.drop)
			hits, misses, uncompressed := pathSums(p)
			t.Logf("hits=%v misses=%v uncompressed=%d", hits, misses, uncompressed)
			for _, pid := range sc.hit {
				if hits[pid] == 0 {
					t.Errorf("path %s routed nothing", pid)
				}
			}
			for _, pid := range sc.miss {
				if misses[pid] == 0 {
					t.Errorf("path %s was never probed-and-missed", pid)
				}
			}
			// The bottom layer's common case (stack enabled) never fails
			// here, so no arrival is expanded in front of the whole stack.
			if uncompressed != 0 {
				t.Errorf("%d compressed arrivals entered the stack at the bottom", uncompressed)
			}
		})
	}
}

// Adversarial input against the control-path wire format: collect
// genuine compressed control wires (acks and retransmissions) from a
// lossy exchange, then feed truncations, bit flips and id-swaps to a
// fresh engine. Nothing may panic, and the engine must still work.
func TestEngineCtrlWireFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))

	// Harvest control wires from a real exchange with loss.
	var ctrlWires [][]byte
	harvest := newEnginePair(t, layers.Stack10(), stack.Func)
	outer := harvest.engs[0].SendWire
	harvest.engs[0].SendWire = func(cast bool, dst int, wire []byte) {
		if len(wire) > 0 && wire[0] == transport.WireCompressed {
			ctrlWires = append(ctrlWires, append([]byte(nil), wire...))
		}
		outer(cast, dst, wire)
	}
	harvest.drop = func(member, n int) bool { return member == 0 && n%13 == 5 }
	for i := 0; i < 120; i++ {
		harvest.engs[0].Send(1, []byte(fmt.Sprintf("harvest%d", i)))
		if i%7 == 6 {
			harvest.engs[0].Timer(int64(i) * 1000)
			harvest.engs[1].Timer(int64(i) * 1000)
		}
	}
	if len(ctrlWires) == 0 {
		t.Fatal("no compressed control wires harvested")
	}

	eng, err := NewEngine(layers.Stack10(), layer.DefaultConfig(testView(2, 1)), stack.Func)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	eng.Deliver = func(int, []byte, bool) { delivered++ }
	for trial := 0; trial < 20000; trial++ {
		s := ctrlWires[rng.Intn(len(ctrlWires))]
		pkt := append([]byte(nil), s...)
		switch rng.Intn(3) {
		case 0: // truncation
			pkt = pkt[:rng.Intn(len(pkt)+1)]
		case 1: // bit flip anywhere
			pkt[rng.Intn(len(pkt))] ^= byte(1 << rng.Intn(8))
		case 2: // random compiled-path id
			if len(pkt) >= 3 {
				pkt[1], pkt[2] = byte(rng.Intn(256)), byte(rng.Intn(256))
			}
		}
		eng.Packet(pkt) // must not panic
	}
	t.Logf("post-fuzz stats: %+v, deliveries %d", eng.Stats(), delivered)
}
