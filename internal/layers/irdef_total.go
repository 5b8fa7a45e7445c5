package layers

import "ensemble/internal/ir"

// IR definition of the sequencer-based total ordering layer. ev.rank is
// a per-view constant, so partial evaluation specializes each member's
// bypass: the sequencer's down path stamps the global sequence number at
// send time; other members' casts go out unstamped and are ordered by an
// announcement — which is not a common-case path, so their self-delivery
// falls back to the full stack.

// IRVars exposes the ordering state.
func (s *totalState) IRVars() []ir.VarSpec {
	return []ir.VarSpec{
		scalar("my_local_seq",
			func() int64 { return s.myLocalSeq },
			func(v int64) { s.myLocalSeq = v }),
		scalar("next_global",
			func() int64 { return s.nextGlobal },
			func(v int64) { s.nextGlobal = v }),
		scalar("g_count",
			func() int64 { return s.gCount },
			func(v int64) { s.gCount = v }),
		scalarRO("pending_len", func() int64 { return int64(len(s.pending)) }),
		scalarRO("blocked", func() int64 { return b2i(s.blocked) }),
	}
}

func totalDef() ir.LayerDef {
	rank := ir.EvField("rank")
	lseq := ir.Var("my_local_seq")
	g := ir.Var("g_count")
	nextG := ir.Var("next_global")
	tagIs := func(t byte) ir.Expr { return ir.Eq(ir.HdrField("tag"), ir.Const(int64(t))) }

	// The up fast path: a sequencer-stamped cast carrying exactly the
	// next global sequence number, with nothing buffered ahead of it.
	upCCP := ir.And(
		tagIs(totalTagData),
		ir.Eq(ir.HdrField("gseq"), nextG),
		ir.Eq(ir.Var("pending_len"), ir.Const(0)),
	)
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
				{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "unordered cast or order announcement"}}},
			},
			ir.UpSend: {
				{Guard: tagIs(totalTagPass), Actions: []ir.Action{ir.PopDeliver{}}},
				{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "unexpected send header"}}},
			},
		}},
		Hdrs: totalHdrs,
		CCP: map[ir.PathKey]ir.Expr{
			// Rule selection is decided by the member's rank (a view
			// constant) once the no-flush-in-progress predicate holds.
			ir.DnCast: ir.Eq(ir.Var("blocked"), ir.Const(0)),
			ir.DnSend: ir.True,
			ir.UpCast: upCCP,
			ir.UpSend: tagIs(totalTagPass),
		},
	}
}

func init() {
	ir.RegisterDef(totalDef())
}
