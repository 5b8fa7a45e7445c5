package layers

import "ensemble/internal/ir"

// IR definitions for the reliability layers (mnak, pt2pt). Their common
// cases are the paper's canonical CCP example (§4.1): the event carries
// the next expected sequence number — it was not lost or reordered — so
// it may be delivered and the window advanced without buffering.

// ---- mnak ----

// IRVars exposes the multicast reliability state.
func (s *mnakState) IRVars() []ir.VarSpec {
	return []ir.VarSpec{
		scalar("my_seq",
			func() int64 { return s.mySeq },
			func(v int64) { s.mySeq = v }),
		intsArray("recv_next", &s.recvNext),
		arrayRO("recv_buf_len", func(i int64) int64 { return int64(s.ahead[i]) }),
	}
}

// IREffects exposes the deferred retention of casts: the bypass sends
// (or delivers) first and buffers afterwards, taking the buffering
// overhead out of the critical path (paper §4, optimization 3).
func (s *mnakState) IREffects() []ir.EffectSpec {
	return []ir.EffectSpec{
		{
			// save_cast(seqno): retain a cast this member sent.
			Name: "save_cast", Hdrs: true,
			Run: func(ctx ir.EffectCtx) { s.logs[s.view.Rank].put(&s.arena, ctx.Args[0], effectImage(ctx)) },
		},
		{
			// keep_cast(origin, seqno): retain a delivered cast, so this
			// member can retransmit it on the origin's behalf (see logs).
			Name: "keep_cast", Hdrs: true,
			Run: func(ctx ir.EffectCtx) { s.logs[ctx.Args[0]].put(&s.arena, ctx.Args[1], effectImage(ctx)) },
		},
	}
}

func mnakDef() ir.LayerDef {
	peer := ir.EvField("peer")
	seqno := ir.HdrField("seqno")
	recvNext := ir.Index{Name: "recv_next", Idx: peer}
	tagIs := func(t byte) ir.Expr { return ir.Eq(ir.HdrField("tag"), ir.Const(int64(t))) }

	upCast := []ir.Rule{
		{
			// The next expected cast with nothing buffered behind it:
			// deliver and advance, no drain, no NAK; keeping it is deferred.
			Guard: ir.And(tagIs(mnakTagData), ir.Eq(seqno, recvNext),
				ir.Eq(ir.Index{Name: "recv_buf_len", Idx: peer}, ir.Const(0))),
			Actions: []ir.Action{
				ir.CallEffect{Name: "keep_cast", Args: []ir.Expr{peer, seqno}},
				ir.Assign{Target: recvNext, Val: ir.Add(recvNext, ir.Const(1))},
				ir.PopDeliver{},
			},
		},
		{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "gap, duplicate, or buffered drain"}}},
	}
	upSend := []ir.Rule{
		{Guard: tagIs(mnakTagPass), Actions: []ir.Action{ir.PopDeliver{}}},
		{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "NAK or retransmission"}}},
	}
	return ir.LayerDef{
		Name: Mnak,
		IR: ir.LayerIR{Layer: Mnak, Paths: map[ir.PathKey][]ir.Rule{
			ir.DnCast: {{Guard: ir.True, Actions: []ir.Action{
				ir.CallEffect{Name: "save_cast", Args: []ir.Expr{ir.Var("my_seq")}},
				ir.PushHdr{H: ir.HdrCons{Layer: Mnak, Variant: "Data",
					Fields: []ir.HdrFieldVal{{Name: "seqno", Val: ir.Var("my_seq")}}}},
				ir.Assign{Target: ir.Var("my_seq"), Val: ir.Add(ir.Var("my_seq"), ir.Const(1))},
			}}},
			ir.DnSend: {{Guard: ir.True, Actions: []ir.Action{
				ir.PushHdr{H: ir.HdrCons{Layer: Mnak, Variant: "Pass"}},
			}}},
			ir.UpCast: upCast,
			ir.UpSend: upSend,
		}},
		Hdrs: mnakHdrs,
		CCP: map[ir.PathKey]ir.Expr{
			ir.DnCast: ir.True,
			ir.DnSend: ir.True,
			ir.UpCast: ir.And(tagIs(mnakTagData), ir.Eq(seqno, recvNext),
				ir.Eq(ir.Index{Name: "recv_buf_len", Idx: peer}, ir.Const(0))),
			ir.UpSend: tagIs(mnakTagPass),
		},
	}
}

// ---- pt2pt ----

// IRVars exposes the point-to-point sliding-window state.
func (s *pt2ptState) IRVars() []ir.VarSpec {
	return []ir.VarSpec{
		scalarRO("ack_threshold", func() int64 { return int64(s.ackThreshold) }),
		ir.VarSpec{
			Name:  "send_seq",
			GetAt: func(i int64) int64 { return s.peers[i].sendSeq },
			SetAt: func(i, v int64) { s.peers[i].sendSeq = v },
		},
		ir.VarSpec{
			Name:  "recv_next",
			GetAt: func(i int64) int64 { return s.peers[i].recvNext },
			SetAt: func(i, v int64) { s.peers[i].recvNext = v },
		},
		ir.VarSpec{
			Name:  "pending_acks",
			GetAt: func(i int64) int64 { return int64(s.peers[i].pendingAcks) },
			SetAt: func(i, v int64) { s.peers[i].pendingAcks = int(v) },
		},
		arrayRO("ooo_len", func(i int64) int64 { return int64(s.peers[i].oooLen) }),
	}
}

// IREffects exposes the deferred buffering and acknowledgment
// processing of the fast path.
func (s *pt2ptState) IREffects() []ir.EffectSpec {
	return []ir.EffectSpec{
		{
			// save_send(peer, seqno): buffer a sent message for
			// retransmission, after the send itself.
			Name: "save_send", Hdrs: true,
			Run: func(ctx ir.EffectCtx) {
				s.peers[ctx.Args[0]].unacked.put(&s.arena, ctx.Args[1], effectImage(ctx))
			},
		},
		{
			// apply_ack(peer, ack): drop acknowledged retransmission
			// buffers; non-critical, deferred.
			Name: "apply_ack",
			Run:  func(ctx ir.EffectCtx) { s.applyAck(int(ctx.Args[0]), ctx.Args[1]) },
		},
	}
}

func pt2ptDef() ir.LayerDef {
	peer := ir.EvField("peer")
	sendSeq := ir.Index{Name: "send_seq", Idx: peer}
	recvNext := ir.Index{Name: "recv_next", Idx: peer}
	pendingAcks := ir.Index{Name: "pending_acks", Idx: peer}
	tagIs := func(t byte) ir.Expr { return ir.Eq(ir.HdrField("tag"), ir.Const(int64(t))) }

	// The up fast path: in-order data, no queued out-of-order messages,
	// and the pending-ack counter stays under the explicit-ack threshold
	// (so no ack message is emitted).
	upCCP := ir.And(
		tagIs(p2pTagData),
		ir.Eq(ir.HdrField("seqno"), recvNext),
		ir.Eq(ir.Index{Name: "ooo_len", Idx: peer}, ir.Const(0)),
		ir.Lt(ir.Add(pendingAcks, ir.Const(1)), ir.Var("ack_threshold")),
	)
	// Alternate common cases for the up send path, beyond in-order data:
	// a pure acknowledgment (consumed here, nothing continues up), and a
	// retransmission that fills the expected gap — identical bookkeeping
	// to in-order data.
	ackCCP := tagIs(p2pTagAck)
	retransCCP := ir.And(
		tagIs(p2pTagRetrans),
		ir.Eq(ir.HdrField("seqno"), recvNext),
		ir.Eq(ir.Index{Name: "ooo_len", Idx: peer}, ir.Const(0)),
		ir.Lt(ir.Add(pendingAcks, ir.Const(1)), ir.Var("ack_threshold")),
	)
	return ir.LayerDef{
		Name: Pt2pt,
		IR: ir.LayerIR{Layer: Pt2pt, Paths: map[ir.PathKey][]ir.Rule{
			ir.DnSend: {{Guard: ir.True, Actions: []ir.Action{
				ir.CallEffect{Name: "save_send", Args: []ir.Expr{peer, sendSeq}},
				ir.PushHdr{H: ir.HdrCons{Layer: Pt2pt, Variant: "Data", Fields: []ir.HdrFieldVal{
					{Name: "seqno", Val: sendSeq},
					{Name: "ack", Val: recvNext},
				}}},
				ir.Assign{Target: sendSeq, Val: ir.Add(sendSeq, ir.Const(1))},
				ir.Assign{Target: pendingAcks, Val: ir.Const(0)},
			}}},
			ir.DnCast: {{Guard: ir.True, Actions: []ir.Action{
				ir.PushHdr{H: ir.HdrCons{Layer: Pt2pt, Variant: "Pass"}},
			}}},
			ir.UpSend: {
				{Guard: upCCP, Actions: []ir.Action{
					ir.CallEffect{Name: "apply_ack", Args: []ir.Expr{peer, ir.HdrField("ack")}},
					ir.Assign{Target: recvNext, Val: ir.Add(recvNext, ir.Const(1))},
					ir.Assign{Target: pendingAcks, Val: ir.Add(pendingAcks, ir.Const(1))},
					ir.PopDeliver{},
				}},
				{Guard: ackCCP, Actions: []ir.Action{
					ir.CallEffect{Name: "apply_ack", Args: []ir.Expr{peer, ir.HdrField("ack")}},
					ir.Consume{},
				}},
				{Guard: retransCCP, Actions: []ir.Action{
					ir.CallEffect{Name: "apply_ack", Args: []ir.Expr{peer, ir.HdrField("ack")}},
					ir.Assign{Target: recvNext, Val: ir.Add(recvNext, ir.Const(1))},
					ir.Assign{Target: pendingAcks, Val: ir.Add(pendingAcks, ir.Const(1))},
					ir.PopDeliver{},
				}},
				{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "gap, duplicate, out-of-order retransmission, or ack due"}}},
			},
			ir.UpCast: {
				{Guard: tagIs(p2pTagPass), Actions: []ir.Action{ir.PopDeliver{}}},
				{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "unexpected cast header"}}},
			},
		}},
		Hdrs: pt2ptHdrs,
		CCP: map[ir.PathKey]ir.Expr{
			ir.DnSend: ir.True,
			ir.DnCast: ir.True,
			ir.UpSend: upCCP,
			ir.UpCast: tagIs(p2pTagPass),
		},
		AltCCP: map[ir.PathKey][]ir.Expr{
			ir.UpSend: {ackCCP, retransCCP},
		},
	}
}

func init() {
	ir.RegisterDef(mnakDef())
	ir.RegisterDef(pt2ptDef())
}
