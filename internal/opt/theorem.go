package opt

import (
	"fmt"
	"strings"

	"ensemble/internal/ir"
)

// LayerTheorem is a per-layer optimization theorem (paper §4.1.3): under
// the assumed CCP, one path of the layer reduces to a fixed sequence of
// state updates, one continuation (with a known header), an optional
// bounced self-delivery, and deferred effects. For instance, the
// paper's Bottom theorem —
//
//	OPTIMIZING LAYER Bottom
//	FOR   EVENT DnM(ev, hdr)
//	AND   STATE s_bottom
//	ASSUMING getType ev = ESend ∧ s_bottom.enabled
//	YIELDS EVENTS [:DnM(ev, Full_nohdr(hdr)):]
//	AND   STATE s_bottom
//
// — renders here as the Layer="bottom", Path=Dn/Send theorem with
// Push=bottom.NoHdr and no updates.
type LayerTheorem struct {
	Layer string
	Path  ir.PathKey
	// Assumed is the CCP the theorem holds under (layer-scoped names).
	Assumed ir.Expr
	// Updates are the state assignments, in order, with simplified
	// right-hand sides.
	Updates []ir.Assign
	// Push is the header construction on a down path (nil on up paths).
	Push *ir.HdrCons
	// Delivered marks an up-path continuation.
	Delivered bool
	// Bounced marks a reflected self-delivery (the local layer).
	Bounced bool
	// Consumed marks an up path absorbed at this layer (pure control
	// traffic, or a parked message; no continuation above).
	Consumed bool
	// Park is set when the layer consumes the message by parking it, and
	// Release when consuming it releases parked ones above; their
	// expressions are simplified like the updates'.
	Park    *ir.Park
	Release *ir.Release
	// Effects are the deferred opaque operations.
	Effects []ir.CallEffect
}

// String renders the theorem in the paper's style.
func (t *LayerTheorem) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "OPTIMIZING LAYER %s\n", t.Layer)
	dir := "DnM"
	if t.Path.Dir.String() == "Up" {
		dir = "UpM"
	}
	fmt.Fprintf(&b, "FOR   EVENT %s(ev, hdr) [%s]\n", dir, t.Path)
	fmt.Fprintf(&b, "AND   STATE s_%s\n", t.Layer)
	fmt.Fprintf(&b, "ASSUMING %s\n", t.Assumed)
	fmt.Fprintf(&b, "YIELDS EVENTS [:")
	var evs []string
	if t.Push != nil {
		evs = append(evs, fmt.Sprintf("DnM(ev, %s)", t.Push))
	}
	if t.Delivered {
		evs = append(evs, "UpM(ev, hdr')")
	}
	if t.Bounced {
		evs = append(evs, "UpM(copy ev)")
	}
	switch {
	case t.Park != nil:
		evs = append(evs, t.Park.String())
	case t.Release != nil:
		evs = append(evs, t.Release.String())
	case t.Consumed:
		evs = append(evs, "consume ev")
	}
	fmt.Fprintf(&b, "%s:]\n", strings.Join(evs, "; "))
	if len(t.Updates) == 0 {
		fmt.Fprintf(&b, "AND   STATE s_%s", t.Layer)
	} else {
		var ups []string
		for _, u := range t.Updates {
			ups = append(ups, u.String())
		}
		fmt.Fprintf(&b, "AND   STATE s_%s { %s }", t.Layer, strings.Join(ups, "; "))
	}
	for _, e := range t.Effects {
		fmt.Fprintf(&b, "\nDEFER %s", e)
	}
	return b.String()
}

// DeriveLayerTheorem partially evaluates one fundamental case of a
// layer's IR under the given assumptions and returns the resulting
// optimization theorem. It fails when the assumptions do not determine a
// unique non-fallback rule — the paper's "guard undecided" situation,
// where the CCP is too weak to isolate a bypass path.
func DeriveLayerTheorem(def *ir.LayerDef, path ir.PathKey, assumed ir.Expr, base *Facts) (*LayerTheorem, error) {
	rules, ok := def.IR.Paths[path]
	if !ok {
		return nil, fmt.Errorf("opt: layer %q has no IR for %s", def.Name, path)
	}
	facts := base.Clone()
	for _, inv := range def.Invariants {
		facts.Assume(inv)
	}
	facts.Assume(assumed)

	var selected *ir.Rule
	for i := range rules {
		g := Simplify(rules[i].Guard, facts)
		switch g {
		case ir.True:
			selected = &rules[i]
		case ir.False:
			continue
		default:
			return nil, fmt.Errorf("opt: layer %q %s: guard undecided under CCP: %s",
				def.Name, path, g)
		}
		break
	}
	if selected == nil {
		return nil, fmt.Errorf("opt: layer %q %s: no rule selected under CCP", def.Name, path)
	}

	th := &LayerTheorem{Layer: def.Name, Path: path, Assumed: assumed}
	for _, a := range selected.Actions {
		switch a := a.(type) {
		case ir.Assign:
			tgt := a.Target
			if idx, ok := tgt.(ir.Index); ok {
				tgt = ir.Index{Name: idx.Name, Idx: SimplifyVal(idx.Idx, facts)}
			}
			th.Updates = append(th.Updates, ir.Assign{Target: tgt, Val: SimplifyVal(a.Val, facts)})
		case ir.PushHdr:
			h := ir.HdrCons{Layer: a.H.Layer, Variant: a.H.Variant}
			for _, fv := range a.H.Fields {
				h.Fields = append(h.Fields, ir.HdrFieldVal{Name: fv.Name, Val: SimplifyVal(fv.Val, facts)})
			}
			th.Push = &h
		case ir.PopDeliver:
			th.Delivered = true
		case ir.Bounce:
			th.Bounced = true
		case ir.Consume:
			th.Consumed = true
		case ir.Park:
			th.Consumed = true
			th.Park = &ir.Park{Hold: a.Hold, Args: simplifyAll(a.Args, facts)}
		case ir.Release:
			th.Consumed = true
			th.Release = &ir.Release{Hold: a.Hold, Args: simplifyAll(a.Args, facts),
				Peer: SimplifyVal(a.Peer, facts), Count: SimplifyVal(a.Count, facts)}
		case ir.CallEffect:
			th.Effects = append(th.Effects, ir.CallEffect{Name: a.Name, Args: simplifyAll(a.Args, facts)})
		case ir.Fallback:
			return nil, fmt.Errorf("opt: layer %q %s: common case reaches fallback (%s)",
				def.Name, path, a.Reason)
		}
	}
	return th, nil
}

func simplifyAll(es []ir.Expr, facts *Facts) []ir.Expr {
	out := make([]ir.Expr, len(es))
	for i, e := range es {
		out[i] = SimplifyVal(e, facts)
	}
	return out
}

// DeriveAll derives the theorems for all four fundamental cases of a
// layer under its registered CCPs — the tool's static, a priori step
// (§4.1.2). Paths whose CCP cannot isolate a bypass are reported in the
// error map rather than failing the others.
func DeriveAll(def *ir.LayerDef, base *Facts) (map[ir.PathKey]*LayerTheorem, map[ir.PathKey]error) {
	out := map[ir.PathKey]*LayerTheorem{}
	errs := map[ir.PathKey]error{}
	for _, path := range ir.AllPaths() {
		ccp, ok := def.CCP[path]
		if !ok {
			errs[path] = fmt.Errorf("opt: layer %q has no CCP for %s", def.Name, path)
			continue
		}
		th, err := DeriveLayerTheorem(def, path, ccp, base)
		if err != nil {
			errs[path] = err
			continue
		}
		out[path] = th
	}
	return out, errs
}
