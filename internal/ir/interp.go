package ir

import (
	"fmt"

	"ensemble/internal/event"
)

// Binding connects IR names to one live layer state.
type Binding struct {
	Layer   string
	scalars map[string]VarSpec
	arrays  map[string]VarSpec
	effects map[string]EffectSpec
	holds   map[string]HoldSpec
}

// Bind builds a binding from a layer state. States without an IR model
// yield an error: such layers cannot participate in a bypass.
func Bind(layerName string, st any) (*Binding, error) {
	sm, ok := st.(StateModel)
	if !ok {
		return nil, fmt.Errorf("ir: layer %q state %T exposes no IR variables", layerName, st)
	}
	b := &Binding{
		Layer:   layerName,
		scalars: map[string]VarSpec{},
		arrays:  map[string]VarSpec{},
		effects: map[string]EffectSpec{},
		holds:   map[string]HoldSpec{},
	}
	for _, v := range sm.IRVars() {
		switch {
		case v.Get != nil && v.Set != nil:
			b.scalars[v.Name] = v
		case v.GetAt != nil && v.SetAt != nil:
			b.arrays[v.Name] = v
		default:
			return nil, fmt.Errorf("ir: layer %q variable %q has incomplete accessors", layerName, v.Name)
		}
	}
	if em, ok := st.(EffectModel); ok {
		for _, e := range em.IREffects() {
			b.effects[e.Name] = e
		}
	}
	if hm, ok := st.(HoldModel); ok {
		for _, h := range hm.IRHolds() {
			b.holds[h.Name] = h
		}
	}
	return b, nil
}

// Scalar reads a scalar variable, panicking on unknown names: an IR
// referencing an unbound variable is a definition bug surfaced by tests.
func (b *Binding) Scalar(name string) int64 {
	v, ok := b.scalars[name]
	if !ok {
		panic(fmt.Sprintf("ir: layer %q has no scalar %q", b.Layer, name))
	}
	return v.Get()
}

// SetScalar writes a scalar variable.
func (b *Binding) SetScalar(name string, x int64) {
	v, ok := b.scalars[name]
	if !ok {
		panic(fmt.Sprintf("ir: layer %q has no scalar %q", b.Layer, name))
	}
	v.Set(x)
}

// Elem reads an array element.
func (b *Binding) Elem(name string, i int64) int64 {
	v, ok := b.arrays[name]
	if !ok {
		panic(fmt.Sprintf("ir: layer %q has no array %q", b.Layer, name))
	}
	return v.GetAt(i)
}

// SetElem writes an array element.
func (b *Binding) SetElem(name string, i, x int64) {
	v, ok := b.arrays[name]
	if !ok {
		panic(fmt.Sprintf("ir: layer %q has no array %q", b.Layer, name))
	}
	v.SetAt(i, x)
}

// Effect finds a bound effect.
func (b *Binding) Effect(name string) (EffectSpec, bool) {
	e, ok := b.effects[name]
	return e, ok
}

// Hold finds a bound hold.
func (b *Binding) Hold(name string) (HoldSpec, bool) {
	h, ok := b.holds[name]
	return h, ok
}

// ScalarSpec exposes a scalar's accessors for the bypass compiler.
func (b *Binding) ScalarSpec(name string) (VarSpec, bool) {
	v, ok := b.scalars[name]
	return v, ok
}

// ArraySpec exposes an array's accessors for the bypass compiler.
func (b *Binding) ArraySpec(name string) (VarSpec, bool) {
	v, ok := b.arrays[name]
	return v, ok
}

// EvInfo is the event-level frame for expression evaluation.
type EvInfo struct {
	Peer int64
	Len  int64
	Appl bool
	Rank int64
	// N is the view's size, constant per view like Rank.
	N int64
}

// Field reads a named event field.
func (e EvInfo) Field(name string) int64 {
	switch name {
	case "peer":
		return e.Peer
	case "len":
		return e.Len
	case "appl":
		if e.Appl {
			return 1
		}
		return 0
	case "rank":
		return e.Rank
	case "n":
		return e.N
	default:
		panic(fmt.Sprintf("ir: unknown event field %q", name))
	}
}

// Frame is a full evaluation context: one layer's state binding, the
// event, and (on the up path) the popped header's fields.
type Frame struct {
	B   *Binding
	Ev  EvInfo
	Hdr map[string]int64
}

// Eval evaluates an expression in the frame.
func Eval(e Expr, f *Frame) int64 {
	switch e := e.(type) {
	case Const:
		return int64(e)
	case Var:
		return f.B.Scalar(string(e))
	case Index:
		return f.B.Elem(e.Name, Eval(e.Idx, f))
	case EvField:
		return f.Ev.Field(string(e))
	case HdrField:
		v, ok := f.Hdr[string(e)]
		if !ok {
			panic(fmt.Sprintf("ir: header field %q not present", string(e)))
		}
		return v
	case Bin:
		l := Eval(e.L, f)
		// Short-circuit the connectives.
		switch e.Op {
		case OpAnd:
			if l == 0 {
				return 0
			}
			return boolToInt(Eval(e.R, f) != 0)
		case OpOr:
			if l != 0 {
				return 1
			}
			return boolToInt(Eval(e.R, f) != 0)
		}
		r := Eval(e.R, f)
		switch e.Op {
		case OpAdd:
			return l + r
		case OpSub:
			return l - r
		case OpMul:
			return l * r
		case OpEq:
			return boolToInt(l == r)
		case OpNe:
			return boolToInt(l != r)
		case OpLt:
			return boolToInt(l < r)
		case OpLe:
			return boolToInt(l <= r)
		case OpGt:
			return boolToInt(l > r)
		case OpGe:
			return boolToInt(l >= r)
		}
		panic(fmt.Sprintf("ir: unknown operator %v", e.Op))
	case Not:
		return boolToInt(Eval(e.E, f) == 0)
	default:
		panic(fmt.Sprintf("ir: unknown expression %T", e))
	}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Outcome is the observable result of interpreting one path invocation.
type Outcome struct {
	// Fell is set when the selected rule (or no rule) fell back to the
	// full stack; no state was modified.
	Fell   bool
	Reason string

	// Pushed is the header pushed on a linear down path.
	Pushed event.Header
	// Delivered is set on a linear up path.
	Delivered bool
	// Bounced is set when a self-delivery copy was reflected.
	Bounced bool
	// Consumed is set when the layer absorbed the up-going message (pure
	// control traffic, or a message parked; nothing continues above this
	// layer).
	Consumed bool
	// Parked holds the evaluated Park of a parking rule; Released the
	// evaluated Release of a releasing one.
	Parked   *HoldCall
	Released *ReleaseCall
	// Effects lists the effect invocations, in order, with evaluated
	// arguments.
	Effects []EffectCall
}

// HoldCall is a recorded Park: the hold and its evaluated arguments.
type HoldCall struct {
	Hold string
	Args []int64
}

// ReleaseCall is a recorded Release, evaluated.
type ReleaseCall struct {
	HoldCall
	Peer, Count int64
}

// EffectCall is one recorded effect invocation.
type EffectCall struct {
	Name string
	Args []int64
}

// Interp runs one fundamental case of a layer's IR against a live frame,
// applying state updates through the binding. It is the reference
// semantics: differential tests validate it against the executable layer
// handler, and the optimizer's theorems against it.
func Interp(def *LayerDef, path PathKey, f *Frame) (Outcome, error) {
	rules, ok := def.IR.Paths[path]
	if !ok {
		return Outcome{}, fmt.Errorf("ir: layer %q has no IR for path %s", def.Name, path)
	}
	for _, r := range rules {
		if Eval(r.Guard, f) == 0 {
			continue
		}
		return applyActions(def, r.Actions, f)
	}
	return Outcome{Fell: true, Reason: "no rule matched"}, nil
}

func applyActions(def *LayerDef, actions []Action, f *Frame) (Outcome, error) {
	var out Outcome
	for _, a := range actions {
		switch a := a.(type) {
		case Assign:
			val := Eval(a.Val, f)
			switch t := a.Target.(type) {
			case Var:
				f.B.SetScalar(string(t), val)
			case Index:
				f.B.SetElem(t.Name, Eval(t.Idx, f), val)
			}
		case PushHdr:
			spec, err := def.HdrSpecByVariant(a.H.Variant)
			if err != nil {
				return out, err
			}
			vals, err := evalHdrFields(spec, a.H, f)
			if err != nil {
				return out, err
			}
			out.Pushed = spec.Make(vals)
		case PopDeliver:
			out.Delivered = true
		case Bounce:
			out.Bounced = true
		case Consume:
			out.Consumed = true
		case Park:
			out.Consumed = true
			out.Parked = &HoldCall{Hold: a.Hold, Args: evalAll(a.Args, f)}
		case Release:
			out.Consumed = true
			out.Released = &ReleaseCall{
				HoldCall: HoldCall{Hold: a.Hold, Args: evalAll(a.Args, f)},
				Peer:     Eval(a.Peer, f), Count: Eval(a.Count, f),
			}
		case CallEffect:
			out.Effects = append(out.Effects, EffectCall{Name: a.Name, Args: evalAll(a.Args, f)})
		case Fallback:
			if out.Pushed != nil || out.Delivered || out.Consumed || len(out.Effects) > 0 {
				return out, fmt.Errorf("ir: layer %q: fallback after visible actions", def.Name)
			}
			return Outcome{Fell: true, Reason: a.Reason}, nil
		}
	}
	return out, nil
}

func evalAll(es []Expr, f *Frame) []int64 {
	vals := make([]int64, len(es))
	for i, e := range es {
		vals[i] = Eval(e, f)
	}
	return vals
}

// evalHdrFields evaluates a header construction's fields in the order
// the variant spec declares.
func evalHdrFields(spec *HdrSpec, h HdrCons, f *Frame) ([]int64, error) {
	byName := make(map[string]Expr, len(h.Fields))
	for _, fv := range h.Fields {
		byName[fv.Name] = fv.Val
	}
	vals := make([]int64, len(spec.Fields))
	for i, name := range spec.Fields {
		e, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("ir: header %s.%s missing field %q", h.Layer, h.Variant, name)
		}
		vals[i] = Eval(e, f)
	}
	if len(byName) != len(spec.Fields) {
		return nil, fmt.Errorf("ir: header %s.%s has extra fields", h.Layer, h.Variant)
	}
	return vals, nil
}
