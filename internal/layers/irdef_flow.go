package layers

import "ensemble/internal/ir"

// IR definitions for the flow-control and fragmentation layers.

// ---- pt2ptw ----

// IRVars exposes the window flow-control state.
func (s *pt2ptwState) IRVars() []ir.VarSpec {
	return []ir.VarSpec{
		scalarRO("window", func() int64 { return s.window }),
		scalarRO("half_window", func() int64 { return s.window / 2 }),
		ir.VarSpec{
			Name:  "sent",
			GetAt: func(i int64) int64 { return s.peers[i].sent },
			SetAt: func(i, v int64) { s.peers[i].sent = v },
		},
		ir.VarSpec{
			Name:  "acked",
			GetAt: func(i int64) int64 { return s.peers[i].acked },
			SetAt: func(i, v int64) { s.peers[i].acked = v },
		},
		ir.VarSpec{
			Name:  "recvd",
			GetAt: func(i int64) int64 { return s.peers[i].recvd },
			SetAt: func(i, v int64) { s.peers[i].recvd = v },
		},
		ir.VarSpec{
			Name:  "ack_sent",
			GetAt: func(i int64) int64 { return s.peers[i].ackSent },
			SetAt: func(i, v int64) { s.peers[i].ackSent = v },
		},
		arrayRO("queue_len", func(i int64) int64 { return int64(len(s.peers[i].queue)) }),
	}
}

func pt2ptwDef() ir.LayerDef {
	peer := ir.EvField("peer")
	sent := ir.Index{Name: "sent", Idx: peer}
	acked := ir.Index{Name: "acked", Idx: peer}
	recvd := ir.Index{Name: "recvd", Idx: peer}
	ackSent := ir.Index{Name: "ack_sent", Idx: peer}
	tagIs := func(t byte) ir.Expr { return ir.Eq(ir.HdrField("tag"), ir.Const(int64(t))) }

	dnCCP := ir.And(
		ir.Lt(ir.Sub(sent, acked), ir.Var("window")),
		ir.Eq(ir.Index{Name: "queue_len", Idx: peer}, ir.Const(0)),
	)
	// No window acknowledgment becomes due on this delivery.
	upCCP := ir.And(
		tagIs(p2pwTagData),
		ir.Lt(ir.Sub(ir.Add(recvd, ir.Const(1)), ackSent), ir.Var("half_window")),
	)
	return ir.LayerDef{
		Name: Pt2ptw,
		IR: ir.LayerIR{Layer: Pt2ptw, Paths: map[ir.PathKey][]ir.Rule{
			ir.DnSend: {
				{Guard: dnCCP, Actions: []ir.Action{
					ir.Assign{Target: sent, Val: ir.Add(sent, ir.Const(1))},
					ir.PushHdr{H: ir.HdrCons{Layer: Pt2ptw, Variant: "Data"}},
				}},
				{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "window full"}}},
			},
			ir.DnCast: {{Guard: ir.True, Actions: []ir.Action{
				ir.PushHdr{H: ir.HdrCons{Layer: Pt2ptw, Variant: "Pass"}},
			}}},
			ir.UpSend: {
				{Guard: upCCP, Actions: []ir.Action{
					ir.Assign{Target: recvd, Val: ir.Add(recvd, ir.Const(1))},
					ir.PopDeliver{},
				}},
				{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "window ack due or control header"}}},
			},
			ir.UpCast: {
				{Guard: tagIs(p2pwTagPass), Actions: []ir.Action{ir.PopDeliver{}}},
				{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "unexpected cast header"}}},
			},
		}},
		Hdrs: pt2ptwHdrs,
		CCP: map[ir.PathKey]ir.Expr{
			ir.DnSend: dnCCP,
			ir.DnCast: ir.True,
			ir.UpSend: upCCP,
			ir.UpCast: tagIs(p2pwTagPass),
		},
	}
}

// ---- mflow ----

// IRVars exposes the credit-based flow-control state.
func (s *mflowState) IRVars() []ir.VarSpec {
	return []ir.VarSpec{
		scalar("sent_bytes",
			func() int64 { return s.sentBytes },
			func(v int64) { s.sentBytes = v }),
		scalarRO("others", func() int64 { return int64(s.view.N() - 1) }),
		scalarRO("credit", func() int64 { return s.credit }),
		scalarRO("half_credit", func() int64 { return s.credit / 2 }),
		scalarRO("min_acked", func() int64 { return s.minAcked() }),
		scalarRO("queue_len", func() int64 { return int64(len(s.queue)) }),
		intsArray("recv_bytes", &s.recvBytes),
		intsArray("credit_sent", &s.creditSent),
	}
}

func mflowDef() ir.LayerDef {
	peer := ir.EvField("peer")
	length := ir.EvField("len")
	recvBytes := ir.Index{Name: "recv_bytes", Idx: peer}
	tagIs := func(t byte) ir.Expr { return ir.Eq(ir.HdrField("tag"), ir.Const(int64(t))) }

	dnCCP := ir.Bin{Op: ir.OpOr,
		L: ir.Eq(ir.Var("others"), ir.Const(0)),
		R: ir.And(
			ir.Eq(ir.Var("queue_len"), ir.Const(0)),
			ir.Le(ir.Add(ir.Sub(ir.Var("sent_bytes"), ir.Var("min_acked")), length), ir.Var("credit")),
		),
	}
	// No credit message becomes due on this delivery.
	upCCP := ir.And(
		tagIs(mflowTagData),
		ir.Lt(ir.Sub(ir.Add(recvBytes, length), ir.Index{Name: "credit_sent", Idx: peer}), ir.Var("half_credit")),
	)
	return ir.LayerDef{
		Name: Mflow,
		IR: ir.LayerIR{Layer: Mflow, Paths: map[ir.PathKey][]ir.Rule{
			ir.DnCast: {
				{Guard: dnCCP, Actions: []ir.Action{
					ir.Assign{Target: ir.Var("sent_bytes"), Val: ir.Add(ir.Var("sent_bytes"), length)},
					ir.PushHdr{H: ir.HdrCons{Layer: Mflow, Variant: "Data"}},
				}},
				{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "credit exhausted"}}},
			},
			ir.DnSend: {{Guard: ir.True, Actions: []ir.Action{
				ir.PushHdr{H: ir.HdrCons{Layer: Mflow, Variant: "Pass"}},
			}}},
			ir.UpCast: {
				{Guard: upCCP, Actions: []ir.Action{
					ir.Assign{Target: recvBytes, Val: ir.Add(recvBytes, length)},
					ir.PopDeliver{},
				}},
				{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "credit return due"}}},
			},
			ir.UpSend: {
				{Guard: tagIs(mflowTagPass), Actions: []ir.Action{ir.PopDeliver{}}},
				{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "credit message"}}},
			},
		}},
		Hdrs: mflowHdrs,
		CCP: map[ir.PathKey]ir.Expr{
			ir.DnCast: dnCCP,
			ir.DnSend: ir.True,
			ir.UpCast: upCCP,
			ir.UpSend: tagIs(mflowTagPass),
		},
	}
}

// ---- frag ----

// IRVars exposes the fragmentation state.
func (s *fragState) IRVars() []ir.VarSpec {
	return []ir.VarSpec{
		scalarRO("max_frag", func() int64 { return int64(s.maxFrag) }),
		arrayRO("cast_expect", func(i int64) int64 { return int64(s.casts[i].expect) }),
		arrayRO("send_expect", func(i int64) int64 { return int64(s.sends[i].expect) }),
	}
}

func fragDef() ir.LayerDef {
	peer := ir.EvField("peer")
	length := ir.EvField("len")
	tagIs := func(t byte) ir.Expr { return ir.Eq(ir.HdrField("tag"), ir.Const(int64(t))) }

	dnCCP := ir.Le(length, ir.Var("max_frag"))
	dn := []ir.Rule{
		{Guard: dnCCP, Actions: []ir.Action{
			ir.PushHdr{H: ir.HdrCons{Layer: Frag, Variant: "Solo"}},
		}},
		{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "payload needs fragmenting"}}},
	}
	upRules := func(expectArray string) []ir.Rule {
		return []ir.Rule{
			{Guard: ir.And(tagIs(fragTagSolo), ir.Eq(ir.Index{Name: expectArray, Idx: peer}, ir.Const(0))),
				Actions: []ir.Action{ir.PopDeliver{}}},
			{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "reassembly in progress"}}},
		}
	}
	return ir.LayerDef{
		Name: Frag,
		IR: ir.LayerIR{Layer: Frag, Paths: map[ir.PathKey][]ir.Rule{
			ir.DnCast: dn,
			ir.DnSend: dn,
			ir.UpCast: upRules("cast_expect"),
			ir.UpSend: upRules("send_expect"),
		}},
		Hdrs: fragHdrs,
		CCP: map[ir.PathKey]ir.Expr{
			ir.DnCast: dnCCP,
			ir.DnSend: dnCCP,
			ir.UpCast: ir.And(tagIs(fragTagSolo), ir.Eq(ir.Index{Name: "cast_expect", Idx: peer}, ir.Const(0))),
			ir.UpSend: ir.And(tagIs(fragTagSolo), ir.Eq(ir.Index{Name: "send_expect", Idx: peer}, ir.Const(0))),
		},
	}
}

func init() {
	ir.RegisterDef(pt2ptwDef())
	ir.RegisterDef(mflowDef())
	ir.RegisterDef(fragDef())
}
