package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ensemble/internal/ir"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// The sequencer announces runs of casts: consecutive assignments to one
// origin leave as one order announcement with a count, closed when the
// next assignment does not continue the run, before the sequencer
// stamps its own cast, on a block, and at the end of its input burst.

// runsGroup builds an n-member group of the named stack under one of the
// three execution models: IMP and FUNC plain, MACH the bypass over FUNC.
func runsGroup(t *testing.T, n int, names []string, model string, profile netsim.Profile, seed int64, h func(rank int) Handlers) *ClusterGroup {
	t.Helper()
	var g *ClusterGroup
	var err error
	switch model {
	case "IMP":
		g, err = NewClusterGroup(n, profile, seed, names, stack.Imp, h)
	case "FUNC":
		g, err = NewClusterGroup(n, profile, seed, names, stack.Func, h)
	default:
		g, err = NewOptimizedClusterGroup(n, profile, seed, names, stack.Func, h)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTotalOrderUnderRuns: whatever shape the sequencer's runs take,
// every member delivers the same sequence. Each round's casts are
// direct calls, one frame each, sent at one virtual instant: they reach
// the sequencer as one burst, where one origin's consecutive casts form
// a run, origins interleave, and the sequencer's reply to an "echo"
// cast — cast from its delivery handler, mid-burst — breaks the run it
// lands in. On the vsync stack a member casts and leaves inside a round,
// so the flush blocks the sequencer in the middle of the burst. On a
// lossy network, announcements and casts are lost, duplicated and
// reordered, and orders overtake their casts. On a clean one each
// round must be delivered everywhere well inside one sweep interval: a
// run left open at the end of a burst would wait for the sweep.
func TestTotalOrderUnderRuns(t *testing.T) {
	const n, rounds = 4, 6
	for _, st := range []struct {
		name  string
		names []string
	}{{"Stack10", layers.Stack10()}, {"StackVsync", layers.StackVsync()}} {
		vsync := slices.Contains(st.names, layers.Membership)
		for _, model := range []string{"IMP", "FUNC", "MACH"} {
			for _, lossy := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/lossy=%t", st.name, model, lossy), func(t *testing.T) {
					profile := netsim.Profile{Latency: 50_000}
					if lossy {
						profile = netsim.Lossy(0.05)
						if vsync {
							profile = netsim.Lossy(0.01)
						}
					}
					var g *ClusterGroup
					logs := make([][]string, n)
					handlers := func(rank int) Handlers {
						return Handlers{OnCast: func(origin int, payload []byte) {
							p := string(payload)
							logs[rank] = append(logs[rank], p)
							if rank == 0 && strings.HasPrefix(p, "echo") {
								g.Members[0].Cast([]byte("re:" + p))
							}
						}}
					}
					g = runsGroup(t, n, st.names, model, profile, 11, handlers)
					g.Run(int64(100e6))
					leaver, submitted := -1, 0
					cast := func(r, round, k int, prefix string) {
						if r == leaver {
							return
						}
						g.Members[r].Cast(fmt.Appendf(nil, "%sr%d/m%d/%d", prefix, round, r, k))
						submitted++
						if prefix == "echo" {
							submitted++ // the sequencer's reply
						}
					}
					for round := 0; round < rounds; round++ {
						// A run of three from member 1, another origin between
						// two casts of member 3's, and an echo inside member 2's
						// run of two.
						cast(1, round, 0, "")
						cast(1, round, 1, "")
						cast(1, round, 2, "")
						cast(3, round, 0, "")
						cast(2, round, 0, "")
						cast(3, round, 1, "")
						cast(2, round, 1, "echo")
						cast(2, round, 2, "")
						if vsync && round == rounds/2 {
							// Member 3's casts and its leave share the burst.
							g.Members[3].Leave()
							leaver = 3
						}
						g.Run(int64(5e6))
						if lossy || (vsync && round >= rounds/2) {
							continue
						}
						for r, log := range logs {
							if len(log) != submitted {
								t.Fatalf("round %d: member %d delivered %d of %d casts within 5 ms", round, r, len(log), submitted)
							}
						}
					}
					g.Run(int64(3e9))
					ref := logs[0]
					if len(ref) != submitted {
						t.Fatalf("member 0 delivered %d casts, want %d", len(ref), submitted)
					}
					for r, log := range logs {
						if r == leaver {
							if !slices.Equal(log, ref[:min(len(log), len(ref))]) {
								t.Fatalf("the leaver delivered %v, not a prefix of member 0's %v", log, ref)
							}
							continue
						}
						if !slices.Equal(log, ref) {
							t.Fatalf("member %d delivered\n %v\nmember 0\n %v", r, log, ref)
						}
					}
				})
			}
		}
	}
}

// forgeOrderCount rewrites the count of an order announcement the
// sequencer is sending, full or compressed. Every other wire passes
// untouched. In the test below the sequencer casts no application data,
// so a compressed cast it sends is an announcement, whose first four
// varying fields are total's origin, lseq, gseq and count.
func forgeOrderCount(t *testing.T, cast bool, wire []byte, count int64) ([]byte, bool) {
	if !cast || len(wire) == 0 {
		return wire, false
	}
	if wire[0] == transport.WireCompressed {
		out := append([]byte(nil), wire[:3]...)
		rest := wire[3:]
		sender, k := binary.Uvarint(rest)
		out = binary.AppendUvarint(out, sender)
		rest = rest[k:]
		for i := 0; i < 4; i++ {
			v, k := binary.Varint(rest)
			if k <= 0 {
				t.Fatalf("compressed announcement cut short: % x", wire)
			}
			if i == 3 {
				v = count
			}
			out = binary.AppendVarint(out, v)
			rest = rest[k:]
		}
		return append(out, rest...), true
	}
	ev, err := transport.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	def, err := ir.LookupDef(layers.Total)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := def.HdrSpecByVariant("Order")
	if err != nil {
		t.Fatal(err)
	}
	f, ok := spec.Read(ev.Msg.Headers[0], nil)
	if !ok {
		return wire, false
	}
	ev.Msg.Headers[0] = spec.Make([]int64{f[0], f[1], f[2], count})
	var w transport.Writer
	if err := transport.Marshal(ev, ev.Peer, &w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes(), true
}

// TestOrderRunCountChecked: an announcement whose count no sequencer
// sends — none, a negative one, or a run past any number the sequencer
// can have assigned — is dropped without its count being looped over,
// by plain and optimized members alike, and the casts it names stay
// unordered; a valid run of three orders its casts everywhere.
func TestOrderRunCountChecked(t *testing.T) {
	const n = 3
	for _, optimized := range []bool{false, true} {
		for _, count := range []int64{0, -1, 1 << 40, 1 << 62, 3} {
			t.Run(fmt.Sprintf("mach=%t/count=%d", optimized, count), func(t *testing.T) {
				model := "FUNC"
				if optimized {
					model = "MACH"
				}
				delivered := make([]int, n)
				g := runsGroup(t, n, layers.Stack10(), model, netsim.Profile{Latency: 50_000}, 3,
					func(rank int) Handlers {
						return Handlers{OnCast: func(int, []byte) { delivered[rank]++ }}
					})
				g.Run(int64(10e6))
				seq := g.Members[0].eng
				send, forged := seq.SendWire, 0
				seq.SendWire = func(cast bool, dst int, wire []byte) {
					w, ok := forgeOrderCount(t, cast, wire, count)
					if ok {
						forged++
					}
					send(cast, dst, w)
				}
				// Three casts in one entry leave in one frame and reach the
				// sequencer as one run.
				g.Do(1, 0, func() {
					for k := 0; k < 3; k++ {
						g.Members[1].Cast([]byte{byte(k)})
					}
				})
				g.Run(int64(200e6))
				if forged != 1 {
					t.Fatalf("the sequencer sent %d announcements, want one run", forged)
				}
				want := []int{3, 0, 0}
				if count == 3 {
					want = []int{3, 3, 3}
				}
				if !slices.Equal(delivered, want) {
					t.Fatalf("deliveries per member %v, want %v", delivered, want)
				}
			})
		}
	}
}
