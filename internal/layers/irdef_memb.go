package layers

import "ensemble/internal/ir"

// IR definitions for the membership machinery's data paths. Both layers
// are pass-throughs for application traffic in the common case — no
// flush in progress, the peer's liveness timestamp refreshed — and all
// control traffic (flush rounds, view announcements, heartbeats) falls
// back to the full stack.

// ---- membership ----

// IRVars exposes the flush gate.
func (s *membershipState) IRVars() []ir.VarSpec {
	return []ir.VarSpec{
		scalarRO("blocked", func() int64 { return b2i(s.blocked) }),
		scalarRO("pending_len", func() int64 { return int64(len(s.pending)) }),
		scalarRO("flushing", func() int64 { return b2i(s.flushing) }),
		scalarRO("proposed_seq", func() int64 { return s.proposedSeq }),
		arrayRO("excluded", func(i int64) int64 { return b2i(s.excluded(int(i))) }),
	}
}

func membershipDef() ir.LayerDef {
	notBlocked := ir.Eq(ir.Var("blocked"), ir.Const(0))
	tagIs := func(t byte) ir.Expr { return ir.Eq(ir.HdrField("tag"), ir.Const(int64(t))) }
	dn := []ir.Rule{
		{Guard: notBlocked, Actions: []ir.Action{
			ir.PushHdr{H: ir.HdrCons{Layer: Membership, Variant: "Pass"}},
		}},
		{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "view change in progress"}}},
	}
	up := []ir.Rule{
		{Guard: tagIs(membTagPass), Actions: []ir.Action{ir.PopDeliver{}}},
		{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "membership control traffic"}}},
	}
	return ir.LayerDef{
		Name: Membership,
		IR: ir.LayerIR{Layer: Membership, Paths: map[ir.PathKey][]ir.Rule{
			ir.DnCast: dn, ir.DnSend: dn, ir.UpCast: up, ir.UpSend: up,
		}},
		Hdrs: membHdrs,
		CCP: map[ir.PathKey]ir.Expr{
			ir.DnCast: notBlocked,
			ir.DnSend: notBlocked,
			ir.UpCast: tagIs(membTagPass),
			ir.UpSend: tagIs(membTagPass),
		},
	}
}

// ---- suspect ----

// IRVars exposes the failure detector's liveness clock.
func (s *suspectState) IRVars() []ir.VarSpec {
	return []ir.VarSpec{
		scalarRO("suspected", func() int64 {
			c := int64(0)
			for _, b := range s.suspected {
				if b {
					c++
				}
			}
			return c
		}),
		scalarRO("now", func() int64 { return s.now }),
		ir.VarSpec{
			Name:  "last_heard",
			GetAt: func(i int64) int64 { return s.lastHeard[i] },
			SetAt: func(i, v int64) { s.lastHeard[i] = v },
		},
	}
}

func suspectDef() ir.LayerDef {
	tagIs := func(t byte) ir.Expr { return ir.Eq(ir.HdrField("tag"), ir.Const(int64(t))) }
	lastHeard := ir.Index{Name: "last_heard", Idx: ir.EvField("peer")}
	dn := []ir.Rule{{Guard: ir.True, Actions: []ir.Action{
		ir.PushHdr{H: ir.HdrCons{Layer: Suspect, Variant: "Pass"}},
	}}}
	// Refreshing the liveness timestamp is an unconditional write of
	// `now`: the handler's max() guard is equivalent because timestamps
	// never exceed the clock (before the first sweep both are 0).
	up := []ir.Rule{
		{Guard: tagIs(suspectTagPass), Actions: []ir.Action{
			ir.Assign{Target: lastHeard, Val: ir.Var("now")},
			ir.PopDeliver{},
		}},
		{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "heartbeat"}}},
	}
	return ir.LayerDef{
		Name: Suspect,
		IR: ir.LayerIR{Layer: Suspect, Paths: map[ir.PathKey][]ir.Rule{
			ir.DnCast: dn, ir.DnSend: dn, ir.UpCast: up, ir.UpSend: up,
		}},
		Hdrs: suspectHdrs,
		CCP: map[ir.PathKey]ir.Expr{
			ir.DnCast: ir.True,
			ir.DnSend: ir.True,
			ir.UpCast: tagIs(suspectTagPass),
			ir.UpSend: tagIs(suspectTagPass),
		},
	}
}

func init() {
	ir.RegisterDef(membershipDef())
	ir.RegisterDef(suspectDef())
}
