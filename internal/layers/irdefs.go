package layers

import (
	"ensemble/internal/event"
	"ensemble/internal/ir"
)

// This file and its siblings (irdef_*.go) give each component's IR
// definition: the data-path rules and the Common Case Predicates the
// layer's author specifies (paper §4.1.2, the "static level" performed
// under the guidance of the programmer who developed the layer), over
// the header variant specs declared beside each layer's header types
// (bottomHdrs, mnakHdrs, ...). The IRVars/IREffects methods on the state
// structs bind the IR's variables to live states so that the compiled
// bypass shares state with the running stack.

// scalar builds a scalar VarSpec from accessors.
func scalar(name string, get func() int64, set func(int64)) ir.VarSpec {
	return ir.VarSpec{Name: name, Get: get, Set: set}
}

// scalarRO builds a read-only scalar (configuration constants and
// derived quantities the IR never assigns).
func scalarRO(name string, get func() int64) ir.VarSpec {
	return ir.VarSpec{Name: name, Get: get, Set: func(int64) {
		panic("layers: IR assignment to read-only variable " + name)
	}}
}

// intsArray builds an array VarSpec over an []int64 field.
func intsArray(name string, s *[]int64) ir.VarSpec {
	return ir.VarSpec{
		Name:  name,
		GetAt: func(i int64) int64 { return (*s)[i] },
		SetAt: func(i, v int64) { (*s)[i] = v },
	}
}

// arrayRO builds a read-only derived array.
func arrayRO(name string, get func(i int64) int64) ir.VarSpec {
	return ir.VarSpec{Name: name, GetAt: get, SetAt: func(int64, int64) {
		panic("layers: IR assignment to read-only array " + name)
	}}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// noHdrSpec is the single-variant header spec shared by the layers that
// only delimit the stack (bottom, local, top, partial_appl).
func noHdrSpec[H event.Header]() []ir.HdrSpec {
	return []ir.HdrSpec{bareHdr[H]("NoHdr", 0, onData, ir.PassedUp)}
}

// linearPush is the rule list "always push my (empty) header".
func linearPush(layerName string, extra ...ir.Action) []ir.Rule {
	actions := append([]ir.Action{}, extra...)
	actions = append(actions, ir.PushHdr{H: ir.HdrCons{Layer: layerName, Variant: "NoHdr"}})
	return []ir.Rule{{Guard: ir.True, Actions: actions}}
}

// linearPop is the rule list "always pop and deliver".
func linearPop(extra ...ir.Action) []ir.Rule {
	actions := append([]ir.Action{}, extra...)
	actions = append(actions, ir.PopDeliver{})
	return []ir.Rule{{Guard: ir.True, Actions: actions}}
}

// alwaysTrueCCP marks paths that are common-case unconditionally.
func alwaysTrueCCP() map[ir.PathKey]ir.Expr {
	return map[ir.PathKey]ir.Expr{
		ir.DnCast: ir.True, ir.DnSend: ir.True, ir.UpCast: ir.True, ir.UpSend: ir.True,
	}
}

// ---- bottom ----

// IRVars exposes the bottom layer's gate.
func (s *bottomState) IRVars() []ir.VarSpec {
	return []ir.VarSpec{
		scalar("enabled",
			func() int64 { return b2i(s.enabled) },
			func(v int64) { s.enabled = v != 0 }),
	}
}

func bottomDef() ir.LayerDef {
	enabled := ir.Var("enabled")
	push := ir.PushHdr{H: ir.HdrCons{Layer: Bottom, Variant: "NoHdr"}}
	dn := []ir.Rule{
		{Guard: enabled, Actions: []ir.Action{push}},
		{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "stack disabled"}}},
	}
	up := []ir.Rule{
		{Guard: enabled, Actions: []ir.Action{ir.PopDeliver{}}},
		{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "stack disabled"}}},
	}
	return ir.LayerDef{
		Name: Bottom,
		IR: ir.LayerIR{Layer: Bottom, Paths: map[ir.PathKey][]ir.Rule{
			ir.DnCast: dn, ir.DnSend: dn, ir.UpCast: up, ir.UpSend: up,
		}},
		Hdrs: bottomHdrs,
		CCP: map[ir.PathKey]ir.Expr{
			ir.DnCast: enabled, ir.DnSend: enabled, ir.UpCast: enabled, ir.UpSend: enabled,
		},
	}
}

// ---- local ----

// IRVars: the local layer is stateless.
func (s *localState) IRVars() []ir.VarSpec { return nil }

func localDef() ir.LayerDef {
	return ir.LayerDef{
		Name: Local,
		IR: ir.LayerIR{Layer: Local, Paths: map[ir.PathKey][]ir.Rule{
			// The down-going cast both continues down and bounces a
			// self-delivery copy up: the Bounce composition shape.
			ir.DnCast: {{Guard: ir.True, Actions: []ir.Action{
				ir.PushHdr{H: ir.HdrCons{Layer: Local, Variant: "NoHdr"}},
				ir.Bounce{},
			}}},
			ir.DnSend: linearPush(Local),
			ir.UpCast: linearPop(),
			ir.UpSend: linearPop(),
		}},
		Hdrs: localHdrs,
		CCP:  alwaysTrueCCP(),
	}
}

// ---- top ----

// IRVars: the top layer is stateless.
func (s *topState) IRVars() []ir.VarSpec { return nil }

func topDef() ir.LayerDef {
	return ir.LayerDef{
		Name: Top,
		IR: ir.LayerIR{Layer: Top, Paths: map[ir.PathKey][]ir.Rule{
			ir.DnCast: linearPush(Top),
			ir.DnSend: linearPush(Top),
			ir.UpCast: linearPop(),
			ir.UpSend: linearPop(),
		}},
		Hdrs: topHdrs,
		CCP:  alwaysTrueCCP(),
	}
}

// ---- partial_appl ----

// IRVars exposes the application interface accounting.
func (s *partialApplState) IRVars() []ir.VarSpec {
	return []ir.VarSpec{
		scalar("casts_sent",
			func() int64 { return s.castsSent },
			func(v int64) { s.castsSent = v }),
		intsArray("sends_sent", &s.sendsSent),
		intsArray("casts_deliv", &s.castsDeliv),
		intsArray("sends_deliv", &s.sendsDeliv),
	}
}

func partialApplDef() ir.LayerDef {
	peer := ir.EvField("peer")
	return ir.LayerDef{
		Name: PartialAppl,
		IR: ir.LayerIR{Layer: PartialAppl, Paths: map[ir.PathKey][]ir.Rule{
			ir.DnCast: linearPush(PartialAppl,
				ir.Assign{Target: ir.Var("casts_sent"), Val: ir.Add(ir.Var("casts_sent"), ir.Const(1))}),
			ir.DnSend: linearPush(PartialAppl,
				ir.Assign{Target: ir.Index{Name: "sends_sent", Idx: peer}, Val: ir.Add(ir.Index{Name: "sends_sent", Idx: peer}, ir.Const(1))}),
			ir.UpCast: linearPop(
				ir.Assign{Target: ir.Index{Name: "casts_deliv", Idx: peer}, Val: ir.Add(ir.Index{Name: "casts_deliv", Idx: peer}, ir.Const(1))}),
			ir.UpSend: linearPop(
				ir.Assign{Target: ir.Index{Name: "sends_deliv", Idx: peer}, Val: ir.Add(ir.Index{Name: "sends_deliv", Idx: peer}, ir.Const(1))}),
		}},
		Hdrs: paplHdrs,
		CCP:  alwaysTrueCCP(),
	}
}

// ---- collect ----

// IRVars: collect's data path is stateless (its state changes on gossip
// and EAck events, which are not data-path cases).
func (s *collectState) IRVars() []ir.VarSpec { return nil }

func collectDef() ir.LayerDef {
	pass := ir.Eq(ir.HdrField("tag"), ir.Const(int64(collectTagPass)))
	up := []ir.Rule{
		{Guard: pass, Actions: []ir.Action{ir.PopDeliver{}}},
		{Guard: ir.True, Actions: []ir.Action{ir.Fallback{Reason: "stability gossip"}}},
	}
	return ir.LayerDef{
		Name: Collect,
		IR: ir.LayerIR{Layer: Collect, Paths: map[ir.PathKey][]ir.Rule{
			ir.DnCast: {{Guard: ir.True, Actions: []ir.Action{ir.PushHdr{H: ir.HdrCons{Layer: Collect, Variant: "Pass"}}}}},
			ir.DnSend: {{Guard: ir.True, Actions: []ir.Action{ir.PushHdr{H: ir.HdrCons{Layer: Collect, Variant: "Pass"}}}}},
			ir.UpCast: up,
			ir.UpSend: up,
		}},
		Hdrs: collectHdrs,
		CCP: map[ir.PathKey]ir.Expr{
			ir.DnCast: ir.True, ir.DnSend: ir.True, ir.UpCast: pass, ir.UpSend: pass,
		},
	}
}

func init() {
	ir.RegisterDef(bottomDef())
	ir.RegisterDef(localDef())
	ir.RegisterDef(topDef())
	ir.RegisterDef(partialApplDef())
	ir.RegisterDef(collectDef())
}
