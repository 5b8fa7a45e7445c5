package layers

import (
	"math"

	"ensemble/internal/event"
	"ensemble/internal/ir"
)

// IR definition of the sequencer-based total ordering layer. ev.rank is
// a per-view constant, so partial evaluation specializes each member's
// bypass: the sequencer's down path stamps the global sequence number at
// send time, and its up path assigns the next number to an arriving
// unordered cast while that opens or extends its order run; other
// members park an unordered cast — an arrival, or their own cast's
// self-delivery copy — in the "unordered" hold, and an order run
// naming the oldest casts parked for its origin releases them. Early
// announcements, gaps, closing a run and a blocked member stay with the
// handler.

// IRVars exposes the ordering state.
func (s *totalState) IRVars() []ir.VarSpec {
	return []ir.VarSpec{
		scalar("my_local_seq",
			func() int64 { return s.myLocalSeq },
			func(v int64) { s.myLocalSeq = v }),
		scalar("next_global",
			func() int64 { return s.nextGlobal },
			s.setNextGlobal),
		scalar("g_count",
			func() int64 { return s.gCount },
			func(v int64) { s.gCount = v }),
		scalarRO("pending_n", func() int64 { return s.pendingN }),
		scalarRO("early_n", func() int64 { return s.earlyN }),
		scalarRO("blocked", func() int64 { return b2i(s.blocked) }),
		scalar("run_origin",
			func() int64 { return int64(s.run.Origin) },
			func(v int64) { s.run.Origin = int32(v) }),
		scalar("run_lseq",
			func() int64 { return s.run.LocalSeq },
			func(v int64) { s.run.LocalSeq = v }),
		scalar("run_gseq",
			func() int64 { return s.run.GSeq },
			func(v int64) { s.run.GSeq = v }),
		scalar("run_count",
			func() int64 { return s.run.Count },
			func(v int64) { s.run.Count = v }),
		arrayRO("park_lo", func(o int64) int64 { return s.parked[o].base }),
		arrayRO("park_n", func(o int64) int64 { return s.parked[o].run }),
	}
}

// setNextGlobal is next_global's assignment: the numbers passed leave
// ordered with it.
func (s *totalState) setNextGlobal(v int64) {
	if v >= s.nextGlobal {
		s.advance(v - s.nextGlobal)
		return
	}
	s.advance(s.ordered.width())
	s.nextGlobal = v
}

// IRHolds exposes the parked casts: park(origin, lseq) holds one,
// take(origin) hands on the oldest of an origin's.
func (s *totalState) IRHolds() []ir.HoldSpec {
	return []ir.HoldSpec{{
		Name: "unordered",
		Park: func(a []int64, ev *event.Event) bool { return s.park(int(a[0]), a[1], ev) },
		Take: func(a []int64) *event.Event {
			p := &s.parked[a[0]]
			return p.remove(p.base)
		},
	}}
}

func totalDef() ir.LayerDef {
	rank, peer, n := ir.EvField("rank"), ir.EvField("peer"), ir.EvField("n")
	lseq := ir.Var("my_local_seq")
	g := ir.Var("g_count")
	nextG := ir.Var("next_global")
	pendingNone := ir.Eq(ir.Var("pending_n"), ir.Const(0))
	runCount := ir.Var("run_count")
	tagIs := func(t byte) ir.Expr { return ir.Eq(ir.HdrField("tag"), ir.Const(int64(t))) }
	hLseq, hGseq := ir.HdrField("lseq"), ir.HdrField("gseq")
	unordered := ir.And(tagIs(totalTagData), ir.Eq(hGseq, ir.Const(-1)))

	// The up fast path: a sequencer-stamped cast carrying exactly the
	// next global sequence number, with nothing buffered ahead of it.
	upCCP := ir.And(tagIs(totalTagData), ir.Eq(hGseq, nextG), pendingNone)
	// The sequencer numbers an unordered arrival next, and the number
	// opens its run or extends it (assign); closing a run announces it,
	// which is the handler's.
	assignCCP := ir.And(unordered, ir.Eq(rank, ir.Const(0)),
		ir.Eq(g, nextG), pendingNone,
		ir.Bin{Op: ir.OpOr, L: ir.Eq(runCount, ir.Const(0)), R: ir.And(
			ir.Eq(ir.Var("run_origin"), peer),
			ir.Eq(ir.Add(ir.Var("run_lseq"), runCount), hLseq),
			ir.Eq(ir.Add(ir.Var("run_gseq"), runCount), g),
			ir.Lt(runCount, ir.Const(maxRun)))})
	// Elsewhere an unordered cast is parked, unless an announcement
	// arrived ahead of some cast: finding its number is the handler's.
	parkCCP := ir.And(unordered, ir.Ne(rank, ir.Const(0)), ir.Eq(ir.Var("early_n"), ir.Const(0)))
	// An order run whose casts are the oldest parked for their origin and
	// come next, nothing pending, releases them (validRun's bounds first:
	// the origin indexes the park arrays).
	origin, oLseq, oGseq, count := ir.HdrField("origin"), ir.HdrField("lseq"), ir.HdrField("gseq"), ir.HdrField("count")
	last := ir.Const(math.MaxInt64 - maxRun)
	releaseCCP := ir.And(tagIs(totalTagOrder), ir.Ne(rank, ir.Const(0)),
		ir.Lt(origin, n), ir.Le(ir.Const(0), origin),
		ir.Le(oLseq, last), ir.Le(ir.Const(0), oLseq), ir.Le(oGseq, last), ir.Le(count, ir.Const(maxRun)),
		ir.Eq(oGseq, nextG), pendingNone,
		ir.Eq(ir.Index{Name: "park_lo", Idx: origin}, oLseq),
		ir.Le(count, ir.Index{Name: "park_n", Idx: origin}),
		ir.Lt(ir.Const(0), count))
	return ir.LayerDef{
		Name: Total,
		IR: ir.LayerIR{Layer: Total, Paths: map[ir.PathKey][]ir.Rule{
			ir.DnCast: {
				{Guard: ir.And(ir.Eq(rank, ir.Const(0)), ir.Eq(ir.Var("blocked"), ir.Const(0))), Actions: []ir.Action{
					ir.PushHdr{H: ir.HdrCons{Layer: Total, Variant: "Data", Fields: []ir.HdrFieldVal{
						{Name: "lseq", Val: lseq},
						{Name: "gseq", Val: g},
					}}},
					ir.Assign{Target: lseq, Val: ir.Add(lseq, ir.Const(1))},
					ir.Assign{Target: g, Val: ir.Add(g, ir.Const(1))},
				}},
				{Guard: ir.True, Actions: []ir.Action{
					ir.PushHdr{H: ir.HdrCons{Layer: Total, Variant: "Data", Fields: []ir.HdrFieldVal{
						{Name: "lseq", Val: lseq},
						{Name: "gseq", Val: ir.Const(-1)},
					}}},
					ir.Assign{Target: lseq, Val: ir.Add(lseq, ir.Const(1))},
				}},
			},
			ir.DnSend: {{Guard: ir.True, Actions: []ir.Action{
				ir.PushHdr{H: ir.HdrCons{Layer: Total, Variant: "Pass"}},
			}}},
			ir.UpCast: {
				{Guard: upCCP, Actions: []ir.Action{
					ir.Assign{Target: nextG, Val: ir.Add(nextG, ir.Const(1))},
					ir.PopDeliver{},
				}},
				{Guard: assignCCP, Actions: []ir.Action{
					// Every right-hand side reads the state before the
					// rule: run_lseq and run_gseq are unchanged by an
					// extension and the new number's by an opening.
					ir.Assign{Target: ir.Var("run_lseq"), Val: ir.Sub(hLseq, runCount)},
					ir.Assign{Target: ir.Var("run_gseq"), Val: ir.Sub(g, runCount)},
					ir.Assign{Target: ir.Var("run_origin"), Val: peer},
					ir.Assign{Target: runCount, Val: ir.Add(runCount, ir.Const(1))},
					ir.Assign{Target: g, Val: ir.Add(g, ir.Const(1))},
					ir.Assign{Target: nextG, Val: ir.Add(nextG, ir.Const(1))},
					ir.PopDeliver{},
				}},
				{Guard: parkCCP, Actions: []ir.Action{
					ir.Park{Hold: "unordered", Args: []ir.Expr{peer, hLseq}},
				}},
				{Guard: releaseCCP, Actions: []ir.Action{
					ir.Assign{Target: nextG, Val: ir.Add(nextG, count)},
					ir.Release{Hold: "unordered", Args: []ir.Expr{origin}, Peer: origin, Count: count},
				}},
				{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "early announcement, gap, run close, or blocked"}}},
			},
			ir.UpSend: {
				{Guard: tagIs(totalTagPass), Actions: []ir.Action{ir.PopDeliver{}}},
				{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "unexpected send header"}}},
			},
		}},
		Hdrs: totalHdrs,
		CCP: map[ir.PathKey]ir.Expr{
			// Rule selection is decided by the member's rank (a view
			// constant) once the no-flush-in-progress predicate holds. An
			// open order run (only ever the sequencer's) must be announced
			// before the next stamp, which the stack does.
			ir.DnCast: ir.And(ir.Eq(ir.Var("blocked"), ir.Const(0)), ir.Eq(runCount, ir.Const(0))),
			ir.DnSend: ir.True,
			ir.UpCast: upCCP,
			ir.UpSend: tagIs(totalTagPass),
		},
		// An unordered cast's signature fixes gseq at -1, which no
		// next_global equals: the stamped common case is rejected for it
		// when the theorem is derived, and the alternates chosen by rank.
		AltCCP: map[ir.PathKey][]ir.Expr{
			ir.UpCast: {assignCCP, parkCCP, releaseCCP},
		},
		Invariants: []ir.Expr{ir.Le(ir.Const(0), nextG)},
	}
}

func init() {
	ir.RegisterDef(totalDef())
}
