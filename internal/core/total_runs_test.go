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
	"ensemble/internal/spec"
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
					// One total-order monitor reads every member's deliveries;
					// a payload's index is the order it was cast in.
					var g *ClusterGroup
					var order spec.TotalNetwork
					var rejected error
					ids := map[string]int{}
					observe := func(name string, params ...int) {
						if err := order.Step(spec.Event{Name: name, Params: params}); err != nil && rejected == nil {
							rejected = err
						}
					}
					castAs := func(r int, p string) {
						if _, ok := ids[p]; !ok {
							ids[p] = len(ids)
						}
						observe("Cast", r, ids[p])
						g.Members[r].Cast([]byte(p))
					}
					delivered := make([]int, n)
					handlers := func(rank int) Handlers {
						return Handlers{OnCast: func(origin int, payload []byte) {
							p := string(payload)
							id, ok := ids[p]
							if !ok {
								id = -1
							}
							observe("Deliver", rank, origin, id)
							delivered[rank]++
							if rank == 0 && strings.HasPrefix(p, "echo") {
								castAs(0, "re:"+p)
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
						castAs(r, fmt.Sprintf("%sr%d/m%d/%d", prefix, round, r, k))
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
						for r, c := range delivered {
							if c != submitted {
								t.Fatalf("round %d: member %d delivered %d of %d casts within 5 ms", round, r, c, submitted)
							}
						}
					}
					g.Run(int64(3e9))
					// Every member's deliveries, the leaver's too, are a prefix
					// of one order; the members that stay deliver all of it.
					if rejected != nil {
						t.Fatal(rejected)
					}
					for r, c := range delivered {
						if r != leaver && c != submitted {
							t.Fatalf("member %d delivered %d casts, want %d", r, c, submitted)
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

// forgeCastLseq rewrites the local sequence number total's header gives
// a cast a member is sending, full or compressed. The member in the test
// below is not the sequencer, so a compressed cast it sends is data,
// whose first varying field is total's lseq.
func forgeCastLseq(t *testing.T, cast bool, wire []byte, lseq int64) ([]byte, bool) {
	if !cast || len(wire) == 0 {
		return wire, false
	}
	if wire[0] == transport.WireCompressed {
		out := append([]byte(nil), wire[:3]...)
		rest := wire[3:]
		sender, k := binary.Uvarint(rest)
		out = binary.AppendUvarint(out, sender)
		if _, k2 := binary.Varint(rest[k:]); k2 > 0 {
			out = binary.AppendVarint(out, lseq)
			return append(out, rest[k+k2:]...), true
		}
		t.Fatalf("compressed cast cut short: % x", wire)
	}
	ev, err := transport.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	def, err := ir.LookupDef(layers.Total)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := def.HdrSpecByVariant("Data")
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range ev.Msg.Headers {
		if f, ok := spec.Read(h, nil); ok {
			ev.Msg.Headers[i] = spec.Make([]int64{lseq, f[1]})
			var w transport.Writer
			if err := transport.Marshal(ev, ev.Peer, &w); err != nil {
				t.Fatal(err)
			}
			return w.Bytes(), true
		}
	}
	return wire, false
}

// TestParkedLseqBounded: a cast whose local sequence number no member
// sends — 1<<40, the first of three — is refused where it would be
// parked, by plain and optimized members alike: the parked casts'
// index never sizes itself from it. The sequencer numbers all three on
// arrival and delivers them; everywhere else the refused cast's number
// never comes up, so the two behind it wait.
func TestParkedLseqBounded(t *testing.T) {
	const n = 3
	for _, model := range []string{"FUNC", "MACH"} {
		t.Run(model, func(t *testing.T) {
			delivered := make([]int, n)
			g := runsGroup(t, n, layers.Stack10(), model, netsim.Profile{Latency: 50_000}, 3,
				func(rank int) Handlers {
					return Handlers{OnCast: func(int, []byte) { delivered[rank]++ }}
				})
			g.Run(int64(10e6))
			origin := g.Members[1].eng
			send, forged := origin.SendWire, 0
			origin.SendWire = func(cast bool, dst int, wire []byte) {
				if forged == 0 {
					if w, ok := forgeCastLseq(t, cast, wire, 1<<40); ok {
						forged++
						wire = w
					}
				}
				send(cast, dst, wire)
			}
			g.Do(1, 0, func() {
				for k := 0; k < 3; k++ {
					g.Members[1].Cast([]byte{byte(k)})
				}
			})
			g.Run(int64(200e6))
			if forged != 1 {
				t.Fatalf("forged %d casts, want one", forged)
			}
			if want := []int{3, 0, 0}; !slices.Equal(delivered, want) {
				t.Fatalf("deliveries per member %v, want %v", delivered, want)
			}
		})
	}
}
