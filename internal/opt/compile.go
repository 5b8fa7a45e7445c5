package opt

import (
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/transport"
)

// The compiler turns a stack optimization theorem into executable
// closures over the live layer states — our analogue of the final Nuprl
// step that exports the optimized code to the OCaml environment
// (§4.1.3). The compiled bypass shares state with the full stack through
// the same accessors the IR interpreter uses, so the run-time CCP switch
// (Fig. 4) can route any individual event to either implementation.

// rtCtx is the per-invocation frame of a compiled path.
type rtCtx struct {
	peer   int64
	length int64
	vary   []int64
	// hv stages header field values for materialize, reused across
	// headers within the invocation (seeded from the engine's scratch
	// frame so the steady state never allocates it).
	hv []int64
}

// cexpr is a compiled expression.
type cexpr func(*rtCtx) int64

// compiler binds composed-namespace references to live state.
type compiler struct {
	bindings map[string]*ir.Binding
	varySlot map[string]int // QHdr key → vary slot
	rank, n  int64
}

func newCompiler(names []string, states []any, rank, n int) (*compiler, error) {
	if len(names) != len(states) {
		return nil, fmt.Errorf("opt: %d names but %d states", len(names), len(states))
	}
	c := &compiler{
		bindings: map[string]*ir.Binding{},
		varySlot: map[string]int{},
		rank:     int64(rank),
		n:        int64(n),
	}
	for i, n := range names {
		b, err := ir.Bind(n, states[i])
		if err != nil {
			return nil, err
		}
		c.bindings[n] = b
	}
	return c, nil
}

// setVarying assigns wire slots for the varying header fields.
func (c *compiler) setVarying(fields []ir.QHdr) {
	c.varySlot = map[string]int{}
	for i, f := range fields {
		c.varySlot[ir.Key(f)] = i
	}
}

func (c *compiler) compile(e ir.Expr) (cexpr, error) {
	switch e := e.(type) {
	case ir.Const:
		v := int64(e)
		return func(*rtCtx) int64 { return v }, nil
	case ir.EvField:
		switch string(e) {
		case "peer":
			return func(ctx *rtCtx) int64 { return ctx.peer }, nil
		case "len":
			return func(ctx *rtCtx) int64 { return ctx.length }, nil
		case "rank":
			r := c.rank
			return func(*rtCtx) int64 { return r }, nil
		case "n":
			n := c.n
			return func(*rtCtx) int64 { return n }, nil
		case "appl":
			return func(*rtCtx) int64 { return 1 }, nil
		default:
			return nil, fmt.Errorf("opt: unknown event field %q", string(e))
		}
	case ir.QVar:
		b, ok := c.bindings[e.Layer]
		if !ok {
			return nil, fmt.Errorf("opt: no binding for layer %q", e.Layer)
		}
		spec, ok := b.ScalarSpec(e.Name)
		if !ok {
			return nil, fmt.Errorf("opt: layer %q has no scalar %q", e.Layer, e.Name)
		}
		get := spec.Get
		return func(*rtCtx) int64 { return get() }, nil
	case ir.QIndex:
		b, ok := c.bindings[e.Layer]
		if !ok {
			return nil, fmt.Errorf("opt: no binding for layer %q", e.Layer)
		}
		spec, ok := b.ArraySpec(e.Name)
		if !ok {
			return nil, fmt.Errorf("opt: layer %q has no array %q", e.Layer, e.Name)
		}
		idx, err := c.compile(e.Idx)
		if err != nil {
			return nil, err
		}
		getAt := spec.GetAt
		return func(ctx *rtCtx) int64 { return getAt(idx(ctx)) }, nil
	case ir.QHdr:
		slot, ok := c.varySlot[ir.Key(e)]
		if !ok {
			return nil, fmt.Errorf("opt: header field %s is neither constant nor a wire input", e)
		}
		return func(ctx *rtCtx) int64 { return ctx.vary[slot] }, nil
	case ir.Bin:
		l, err := c.compile(e.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(e.R)
		if err != nil {
			return nil, err
		}
		return compileBin(e.Op, l, r), nil
	case ir.Not:
		inner, err := c.compile(e.E)
		if err != nil {
			return nil, err
		}
		return func(ctx *rtCtx) int64 {
			if inner(ctx) == 0 {
				return 1
			}
			return 0
		}, nil
	default:
		return nil, fmt.Errorf("opt: cannot compile %T (%s)", e, e)
	}
}

func compileBin(op ir.Op, l, r cexpr) cexpr {
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	switch op {
	case ir.OpAdd:
		return func(c *rtCtx) int64 { return l(c) + r(c) }
	case ir.OpSub:
		return func(c *rtCtx) int64 { return l(c) - r(c) }
	case ir.OpMul:
		return func(c *rtCtx) int64 { return l(c) * r(c) }
	case ir.OpEq:
		return func(c *rtCtx) int64 { return b(l(c) == r(c)) }
	case ir.OpNe:
		return func(c *rtCtx) int64 { return b(l(c) != r(c)) }
	case ir.OpLt:
		return func(c *rtCtx) int64 { return b(l(c) < r(c)) }
	case ir.OpLe:
		return func(c *rtCtx) int64 { return b(l(c) <= r(c)) }
	case ir.OpGt:
		return func(c *rtCtx) int64 { return b(l(c) > r(c)) }
	case ir.OpGe:
		return func(c *rtCtx) int64 { return b(l(c) >= r(c)) }
	case ir.OpAnd:
		return func(c *rtCtx) int64 {
			if l(c) == 0 {
				return 0
			}
			return b(r(c) != 0)
		}
	case ir.OpOr:
		return func(c *rtCtx) int64 {
			if l(c) != 0 {
				return 1
			}
			return b(r(c) != 0)
		}
	}
	panic(fmt.Sprintf("opt: unknown op %v", op))
}

// compiledWrite is one state assignment: value evaluated in the read
// phase, applied in the write phase.
type compiledWrite struct {
	eval  cexpr
	apply func(v int64, ctx *rtCtx)
}

func (c *compiler) compileWrite(a QAssign) (compiledWrite, error) {
	val, err := c.compile(a.Val)
	if err != nil {
		return compiledWrite{}, err
	}
	switch t := a.Target.(type) {
	case ir.QVar:
		b := c.bindings[t.Layer]
		spec, ok := b.ScalarSpec(t.Name)
		if !ok {
			return compiledWrite{}, fmt.Errorf("opt: layer %q has no scalar %q", t.Layer, t.Name)
		}
		set := spec.Set
		return compiledWrite{eval: val, apply: func(v int64, _ *rtCtx) { set(v) }}, nil
	case ir.QIndex:
		b := c.bindings[t.Layer]
		spec, ok := b.ArraySpec(t.Name)
		if !ok {
			return compiledWrite{}, fmt.Errorf("opt: layer %q has no array %q", t.Layer, t.Name)
		}
		idx, err := c.compile(t.Idx)
		if err != nil {
			return compiledWrite{}, err
		}
		setAt := spec.SetAt
		return compiledWrite{eval: val, apply: func(v int64, ctx *rtCtx) { setAt(idx(ctx), v) }}, nil
	default:
		return compiledWrite{}, fmt.Errorf("opt: unsupported assignment target %T", a.Target)
	}
}

// compiledHdr materializes one layer's header from current values.
type compiledHdr struct {
	layer  string
	fields []cexpr
	make_  func([]int64) event.Header
}

func (c *compiler) compileHdr(h QHeader) (compiledHdr, error) {
	ch := compiledHdr{layer: h.Layer, make_: h.Spec.Make}
	// Fields must be evaluated in the spec's declared order.
	byName := map[string]ir.Expr{}
	for _, fv := range h.Fields {
		byName[fv.Name] = fv.Val
	}
	for _, name := range h.Spec.Fields {
		e, ok := byName[name]
		if !ok {
			return compiledHdr{}, fmt.Errorf("opt: header %s.%s missing field %q", h.Layer, h.Variant, name)
		}
		ce, err := c.compile(e)
		if err != nil {
			return compiledHdr{}, err
		}
		ch.fields = append(ch.fields, ce)
	}
	return ch, nil
}

// materialize builds the header from current values. Field values are
// staged in ctx.hv — Make does not retain the slice (ir.HdrSpec).
func (h *compiledHdr) materialize(ctx *rtCtx) event.Header {
	if cap(ctx.hv) < len(h.fields) {
		ctx.hv = make([]int64, len(h.fields))
	}
	vals := ctx.hv[:len(h.fields)]
	for i, f := range h.fields {
		vals[i] = f(ctx)
	}
	return h.make_(vals)
}

// compiledEffect defers one opaque operation. For an effect that buffers
// the message, img is the header stack above its layer in the
// transport's encoding, outermost first — what the full stack would
// have had on the event — as alternating parts: runs of headers whose
// fields are all compile-time constants, encoded once here, and the few
// headers with run-time fields, materialized and encoded per event.
type compiledEffect struct {
	run   func(ir.EffectCtx)
	args  []cexpr
	img   []imgPart
	nhdrs int
}

// imgPart is a pre-encoded run of constant headers (fixed) or one header
// with run-time fields (hdr).
type imgPart struct {
	fixed []byte
	hdr   *compiledHdr
}

func (c *compiler) compileEffect(e QEffect, headers []QHeader) (compiledEffect, error) {
	b, ok := c.bindings[e.Layer]
	if !ok {
		return compiledEffect{}, fmt.Errorf("opt: no binding for layer %q", e.Layer)
	}
	spec, ok := b.Effect(e.Name)
	if !ok {
		return compiledEffect{}, fmt.Errorf("opt: layer %q has no effect %q", e.Layer, e.Name)
	}
	ce := compiledEffect{run: spec.Run}
	for _, a := range e.Args {
		x, err := c.compile(a)
		if err != nil {
			return compiledEffect{}, err
		}
		ce.args = append(ce.args, x)
	}
	if !spec.Hdrs {
		return ce, nil
	}
	// headers[:HdrsAbove] are the layers above, topmost first; the
	// encoding runs the other way.
	ce.nhdrs = e.HdrsAbove
	var w transport.Writer
	for i := e.HdrsAbove - 1; i >= 0; i-- {
		ch, err := c.compileHdr(headers[i])
		if err != nil {
			return compiledEffect{}, err
		}
		if !constHeader(headers[i]) {
			ce.img = append(ce.img, imgPart{hdr: &ch})
			continue
		}
		h := ch.materialize(&rtCtx{})
		w.Reset()
		err = transport.EncodeHeader(h, &w)
		event.FreeHeader(h)
		if err != nil {
			return compiledEffect{}, err
		}
		if n := len(ce.img); n > 0 && ce.img[n-1].hdr == nil {
			ce.img[n-1].fixed = append(ce.img[n-1].fixed, w.Header()...)
		} else {
			ce.img = append(ce.img, imgPart{fixed: append([]byte(nil), w.Header()...)})
		}
	}
	return ce, nil
}

// constHeader reports whether every field of h is a compile-time
// constant (trivially so for the field-less headers most layers push).
func constHeader(h QHeader) bool {
	for _, fv := range h.Fields {
		if _, ok := fv.Val.(ir.Const); !ok {
			return false
		}
	}
	return true
}

// compiledPark parks an event in a layer's hold: the hold's arguments
// and how many of the path's headers (the layers above the parking one)
// the event carries.
type compiledPark struct {
	park func([]int64, *event.Event) bool
	args []cexpr
	hdrs int
}

func (c *compiler) compilePark(p *QPark) (*compiledPark, error) {
	h, err := c.hold(p.Layer, p.Hold)
	if err != nil {
		return nil, err
	}
	args, err := c.compileAll(p.Args)
	if err != nil {
		return nil, err
	}
	return &compiledPark{park: h.Park, args: args, hdrs: p.HdrsAbove}, nil
}

// compiledRelease is a release loop: the hold's arguments, the number of
// messages, and the state writes of the layers above, run per message.
type compiledRelease struct {
	take   func([]int64) *event.Event
	args   []cexpr
	count  cexpr
	writes []compiledWrite
}

func (c *compiler) compileRelease(r *QRelease) (*compiledRelease, error) {
	h, err := c.hold(r.Layer, r.Hold)
	if err != nil {
		return nil, err
	}
	cr := &compiledRelease{take: h.Take}
	if cr.args, err = c.compileAll(r.Args); err != nil {
		return nil, err
	}
	if cr.count, err = c.compile(r.Count); err != nil {
		return nil, err
	}
	for _, u := range r.Updates {
		w, err := c.compileWrite(u)
		if err != nil {
			return nil, err
		}
		cr.writes = append(cr.writes, w)
	}
	return cr, nil
}

func (c *compiler) hold(layer, name string) (ir.HoldSpec, error) {
	b, ok := c.bindings[layer]
	if !ok {
		return ir.HoldSpec{}, fmt.Errorf("opt: no binding for layer %q", layer)
	}
	h, ok := b.Hold(name)
	if !ok {
		return ir.HoldSpec{}, fmt.Errorf("opt: layer %q has no hold %q", layer, name)
	}
	return h, nil
}

func (c *compiler) compileAll(es []ir.Expr) ([]cexpr, error) {
	out := make([]cexpr, len(es))
	for i, e := range es {
		ce, err := c.compile(e)
		if err != nil {
			return nil, err
		}
		out[i] = ce
	}
	return out, nil
}

// evalInto appends the values of es to dst.
func evalInto(dst []int64, es []cexpr, ctx *rtCtx) []int64 {
	for _, e := range es {
		dst = append(dst, e(ctx))
	}
	return dst
}
