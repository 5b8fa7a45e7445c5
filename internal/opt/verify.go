package opt

import (
	"fmt"
	"math/rand"
	"reflect"

	"ensemble/internal/event"
	"ensemble/internal/ir"
)

// Verification of derived theorems. In the paper, every rewrite Nuprl
// performs is accompanied by a proof, so a layer optimization theorem is
// correct by construction. Our partial evaluator is unverified Go, so we
// re-check each theorem against the reference semantics instead: for
// randomized states and events satisfying the CCP, interpreting the
// layer's full IR must produce exactly the state updates, header, and
// effects the theorem claims. This catches any divergence between the
// evaluator's algebra and the interpreter's semantics.

// shadowState is a self-contained variable store used to both drive the
// interpreter and evaluate theorem expressions.
type shadowState struct {
	scalars map[string]int64
	arrays  map[string][]int64
}

func newShadow(def *ir.LayerDef, n int, rng *rand.Rand) *shadowState {
	s := &shadowState{scalars: map[string]int64{}, arrays: map[string][]int64{}}
	// Discover variables from the IR itself.
	vars := map[string]bool{}
	arrays := map[string]bool{}
	collect := func(e ir.Expr) {
		ir.Walk(e, func(x ir.Expr) {
			switch x := x.(type) {
			case ir.Var:
				vars[string(x)] = true
			case ir.Index:
				arrays[x.Name] = true
			}
		})
	}
	for _, rules := range def.IR.Paths {
		for _, r := range rules {
			collect(r.Guard)
			for _, a := range r.Actions {
				switch a := a.(type) {
				case ir.Assign:
					collect(a.Target)
					collect(a.Val)
				case ir.PushHdr:
					for _, f := range a.H.Fields {
						collect(f.Val)
					}
				default:
					for _, e := range actionExprs(a) {
						collect(e)
					}
				}
			}
		}
	}
	for _, ccp := range def.CCP {
		collect(ccp)
	}
	for _, alts := range def.AltCCP {
		for _, ccp := range alts {
			collect(ccp)
		}
	}
	for v := range vars {
		s.scalars[v] = rng.Int63n(64)
	}
	for a := range arrays {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(64)
		}
		s.arrays[a] = vals
	}
	return s
}

// actionExprs lists the expressions an effect, park or release reads.
func actionExprs(a ir.Action) []ir.Expr {
	switch a := a.(type) {
	case ir.CallEffect:
		return a.Args
	case ir.Park:
		return a.Args
	case ir.Release:
		return append([]ir.Expr{a.Peer, a.Count}, a.Args...)
	}
	return nil
}

func (s *shadowState) clone() *shadowState {
	cp := &shadowState{scalars: map[string]int64{}, arrays: map[string][]int64{}}
	for k, v := range s.scalars {
		cp.scalars[k] = v
	}
	for k, v := range s.arrays {
		cp.arrays[k] = append([]int64(nil), v...)
	}
	return cp
}

// binding adapts the shadow to the interpreter.
func (s *shadowState) binding(layerName string) *ir.Binding {
	b, err := ir.Bind(layerName, shadowModel{s})
	if err != nil {
		panic(err)
	}
	return b
}

type shadowModel struct{ s *shadowState }

// IRVars implements ir.StateModel over the shadow store.
func (m shadowModel) IRVars() []ir.VarSpec {
	var out []ir.VarSpec
	for name := range m.s.scalars {
		name := name
		out = append(out, ir.VarSpec{
			Name: name,
			Get:  func() int64 { return m.s.scalars[name] },
			Set:  func(v int64) { m.s.scalars[name] = v },
		})
	}
	for name := range m.s.arrays {
		name := name
		// An element outside the array reads 0 and takes no write: a
		// frame's random fields index with values no member could have,
		// and the guards that bound them are only biased, not solved.
		out = append(out, ir.VarSpec{
			Name: name,
			GetAt: func(i int64) int64 {
				if a := m.s.arrays[name]; i >= 0 && i < int64(len(a)) {
					return a[i]
				}
				return 0
			},
			SetAt: func(i, v int64) {
				if a := m.s.arrays[name]; i >= 0 && i < int64(len(a)) {
					a[i] = v
				}
			},
		})
	}
	return out
}

// VerifyLayerTheorem checks a derived theorem against the interpreter on
// `trials` randomized frames satisfying the CCP. rank must be the rank
// the theorem was derived for (a view constant baked in as a fact). It
// returns the number of frames actually exercised (frames that fail the
// CCP are resampled a bounded number of times).
func VerifyLayerTheorem(def *ir.LayerDef, th *LayerTheorem, n, rank, trials int, seed int64) (int, error) {
	rng := rand.New(rand.NewSource(seed))
	exercised := 0
	for t := 0; t < trials*8 && exercised < trials; t++ {
		shadow := newShadow(def, n, rng)
		ev := ir.EvInfo{
			Peer: rng.Int63n(int64(n)),
			Len:  rng.Int63n(256),
			Appl: true,
			Rank: int64(rank),
			N:    int64(n),
		}
		hdr := randomHdrFields(def, th, rng)
		frameFor := func(s *shadowState) *ir.Frame {
			return &ir.Frame{B: s.binding(def.Name), Ev: ev, Hdr: hdr}
		}
		// Bias the frame toward the CCP: equality and ordering conjuncts
		// over direct locations are solved by assignment, so most trials
		// exercise the theorem instead of being resampled away.
		biasTowards(th.Assumed, shadow, hdr, frameFor(shadow), rng)
		// Respect the theorem's assumption and any base facts that were
		// fixed at derivation time (rank equality shows up in the
		// assumed expression after simplification, so evaluating it is
		// enough).
		if ir.Eval(th.Assumed, frameFor(shadow)) == 0 || !invariantsHold(def, frameFor(shadow)) {
			continue
		}
		exercised++

		// Interpreter on a clone = reference behaviour.
		ref := shadow.clone()
		out, err := ir.Interp(def, th.Path, frameFor(ref))
		if err != nil {
			return exercised, fmt.Errorf("opt: verify %s %s: interp: %w", def.Name, th.Path, err)
		}
		if out.Fell {
			return exercised, fmt.Errorf("opt: verify %s %s: interpreter fell back under CCP (%s)",
				def.Name, th.Path, out.Reason)
		}

		// Theorem application: evaluate RHS in pre-state, then apply.
		thState := shadow.clone()
		pre := frameFor(shadow) // pre-state frame for RHS evaluation
		type write struct {
			target ir.LValue
			val    int64
		}
		var writes []write
		for _, u := range th.Updates {
			writes = append(writes, write{target: u.Target, val: ir.Eval(u.Val, pre)})
		}
		for _, w := range writes {
			switch tgt := w.target.(type) {
			case ir.Var:
				thState.scalars[string(tgt)] = w.val
			case ir.Index:
				setElem(thState.arrays[tgt.Name], ir.Eval(tgt.Idx, pre), w.val)
			}
		}
		if !reflect.DeepEqual(ref.scalars, thState.scalars) || !reflect.DeepEqual(ref.arrays, thState.arrays) {
			return exercised, fmt.Errorf("opt: verify %s %s: state mismatch\n interp: %v %v\n theorem: %v %v",
				def.Name, th.Path, ref.scalars, ref.arrays, thState.scalars, thState.arrays)
		}

		// Header equality.
		if (th.Push == nil) != (out.Pushed == nil) {
			return exercised, fmt.Errorf("opt: verify %s %s: push mismatch", def.Name, th.Path)
		}
		if th.Push != nil {
			spec, err := def.HdrSpecByVariant(th.Push.Variant)
			if err != nil {
				return exercised, err
			}
			vals := make([]int64, len(spec.Fields))
			byName := map[string]ir.Expr{}
			for _, f := range th.Push.Fields {
				byName[f.Name] = f.Val
			}
			for i, fname := range spec.Fields {
				vals[i] = ir.Eval(byName[fname], pre)
			}
			want := spec.Make(vals)
			if !reflect.DeepEqual(out.Pushed, want) {
				return exercised, fmt.Errorf("opt: verify %s %s: header mismatch: interp %v, theorem %v",
					def.Name, th.Path, out.Pushed, want)
			}
		}
		if th.Delivered != out.Delivered || th.Bounced != out.Bounced || th.Consumed != out.Consumed ||
			(th.Park == nil) != (out.Parked == nil) || (th.Release == nil) != (out.Released == nil) {
			return exercised, fmt.Errorf("opt: verify %s %s: continuation mismatch", def.Name, th.Path)
		}
		if err := sameHolds(th.Park, th.Release, out, func(e ir.Expr) int64 { return ir.Eval(e, pre) }); err != nil {
			return exercised, fmt.Errorf("opt: verify %s %s: %w", def.Name, th.Path, err)
		}

		// Effect equality (names and argument values, in order).
		if len(th.Effects) != len(out.Effects) {
			return exercised, fmt.Errorf("opt: verify %s %s: %d effects, interp ran %d",
				def.Name, th.Path, len(th.Effects), len(out.Effects))
		}
		for i, te := range th.Effects {
			ie := out.Effects[i]
			if te.Name != ie.Name {
				return exercised, fmt.Errorf("opt: verify %s %s: effect %d name %q vs %q",
					def.Name, th.Path, i, te.Name, ie.Name)
			}
			for j, arg := range te.Args {
				if got := ir.Eval(arg, pre); got != ie.Args[j] {
					return exercised, fmt.Errorf("opt: verify %s %s: effect %s arg %d: theorem %d, interp %d",
						def.Name, th.Path, te.Name, j, got, ie.Args[j])
				}
			}
		}
	}
	if exercised == 0 {
		return 0, fmt.Errorf("opt: verify %s %s: no random frame satisfied the CCP", def.Name, th.Path)
	}
	return exercised, nil
}

// invariantsHold reports whether a frame's state is one the layer can be
// in.
func invariantsHold(def *ir.LayerDef, f *ir.Frame) bool {
	for _, inv := range def.Invariants {
		if ir.Eval(inv, f) == 0 {
			return false
		}
	}
	return true
}

func setElem(a []int64, i, v int64) bool {
	if i < 0 || i >= int64(len(a)) {
		return false
	}
	a[i] = v
	return true
}

// sameHolds checks a theorem's park or release against the one the
// interpreter ran, evaluating the theorem's expressions with eval.
func sameHolds(park *ir.Park, rel *ir.Release, out ir.Outcome, eval func(ir.Expr) int64) error {
	same := func(hold string, args []ir.Expr, got *ir.HoldCall) error {
		if hold != got.Hold || len(args) != len(got.Args) {
			return fmt.Errorf("hold %s(%d args), interp %s(%d args)", hold, len(args), got.Hold, len(got.Args))
		}
		for i, a := range args {
			if v := eval(a); v != got.Args[i] {
				return fmt.Errorf("hold %s arg %d: theorem %d, interp %d", hold, i, v, got.Args[i])
			}
		}
		return nil
	}
	switch {
	case park != nil && out.Parked != nil:
		return same(park.Hold, park.Args, out.Parked)
	case rel != nil && out.Released != nil:
		if err := same(rel.Hold, rel.Args, &out.Released.HoldCall); err != nil {
			return err
		}
		if p, c := eval(rel.Peer), eval(rel.Count); p != out.Released.Peer || c != out.Released.Count {
			return fmt.Errorf("release of %d from %d, interp %d from %d", c, p, out.Released.Count, out.Released.Peer)
		}
	}
	return nil
}

// biasTowards nudges a random frame toward satisfying a CCP: for
// conjuncts of the form loc == e, loc < e, or loc <= e where loc is a
// scalar, array element, or header field, the location is assigned a
// satisfying value. Unsolvable conjuncts are left to resampling.
func biasTowards(ccp ir.Expr, s *shadowState, hdr map[string]int64, f *ir.Frame, rng *rand.Rand) {
	eval := func(e ir.Expr) int64 { return ir.Eval(e, f) }
	bias(ccp, true, eval, func(loc ir.Expr, v int64) bool {
		switch loc := loc.(type) {
		case ir.Var:
			s.scalars[string(loc)] = v
			return true
		case ir.Index:
			return setElem(s.arrays[loc.Name], eval(loc.Idx), v)
		case ir.HdrField:
			hdr[string(loc)] = v
			return true
		}
		return false
	}, rng)
}

// bias solves a predicate's conjuncts by assignment, towards holding
// (want) or towards failing (one falsified conjunct is enough). It
// reports whether it assigned anything.
func bias(ccp ir.Expr, want bool, eval func(ir.Expr) int64, assign func(loc ir.Expr, v int64) bool, rng *rand.Rand) bool {
	b, ok := ccp.(ir.Bin)
	if !ok {
		// A bare location is its own truth value.
		return assign(ccp, b2i64(want))
	}
	switch b.Op {
	case ir.OpAnd:
		l := bias(b.L, want, eval, assign, rng)
		if l && !want {
			return true
		}
		return bias(b.R, want, eval, assign, rng) || l
	case ir.OpOr:
		// One disjunct is enough to hold, both must fail.
		if want {
			return bias(b.L, true, eval, assign, rng)
		}
		l := bias(b.L, false, eval, assign, rng)
		return bias(b.R, false, eval, assign, rng) || l
	case ir.OpEq:
		off := 1 - b2i64(want)
		return assign(b.L, eval(b.R)+off) || assign(b.R, eval(b.L)+off)
	case ir.OpLt:
		if !want {
			return assign(b.L, eval(b.R))
		}
		return assign(b.L, eval(b.R)-1-rng.Int63n(3))
	case ir.OpLe:
		if !want {
			return assign(b.L, eval(b.R)+1)
		}
		return assign(b.L, eval(b.R)-rng.Int63n(3))
	}
	return false
}

func b2i64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// randomHdrFields synthesizes header-field inputs for up paths: the tag
// is drawn from the layer's variants (biased toward the one the CCP
// needs so frames are exercised), other fields random — with a bias
// toward values satisfying equality conjuncts, supplied by resampling.
func randomHdrFields(def *ir.LayerDef, th *LayerTheorem, rng *rand.Rand) map[string]int64 {
	fields := map[string]int64{}
	names := map[string]bool{}
	note := func(x ir.Expr) {
		ir.Walk(x, func(x ir.Expr) {
			if h, ok := x.(ir.HdrField); ok {
				names[string(h)] = true
			}
		})
	}
	note(th.Assumed)
	for _, rules := range def.IR.Paths {
		for _, r := range rules {
			note(r.Guard)
			for _, a := range r.Actions {
				switch a := a.(type) {
				case ir.Assign:
					note(a.Val)
					note(a.Target)
				case ir.PushHdr:
					for _, fv := range a.H.Fields {
						note(fv.Val)
					}
				default:
					for _, e := range actionExprs(a) {
						note(e)
					}
				}
			}
		}
	}
	for nm := range names {
		fields[nm] = rng.Int63n(64)
	}
	if len(def.Hdrs) > 0 {
		fields["tag"] = def.Hdrs[rng.Intn(len(def.Hdrs))].Tag
	}
	return fields
}

// stackEnv is the frame a composed up theorem is evaluated in: one
// shadow state per layer, the event, and the wire's varying fields.
type stackEnv struct {
	shadows map[string]*shadowState
	ev      ir.EvInfo
	vary    map[string]int64 // by ir.Key of the QHdr
}

func (e *stackEnv) eval(x ir.Expr) int64 {
	switch x := x.(type) {
	case ir.Const:
		return int64(x)
	case ir.EvField:
		return e.ev.Field(string(x))
	case ir.QVar:
		return e.shadows[x.Layer].scalars[x.Name]
	case ir.QIndex:
		a, i := e.shadows[x.Layer].arrays[x.Name], e.eval(x.Idx)
		if i < 0 || i >= int64(len(a)) {
			return 0
		}
		return a[i]
	case ir.QHdr:
		return e.vary[ir.Key(x)]
	case ir.Not:
		return b2i64(e.eval(x.E) == 0)
	case ir.Bin:
		switch x.Op {
		case ir.OpAnd:
			return b2i64(e.eval(x.L) != 0 && e.eval(x.R) != 0)
		case ir.OpOr:
			return b2i64(e.eval(x.L) != 0 || e.eval(x.R) != 0)
		}
		// The remaining operators are the interpreter's: evaluate the
		// operands here and let it combine them.
		return ir.Eval(ir.Bin{Op: x.Op, L: ir.Const(e.eval(x.L)), R: ir.Const(e.eval(x.R))}, nil)
	}
	panic(fmt.Sprintf("opt: verify: cannot evaluate %T (%s)", x, x))
}

func (e *stackEnv) assign(loc ir.Expr, v int64) bool {
	switch loc := loc.(type) {
	case ir.QVar:
		e.shadows[loc.Layer].scalars[loc.Name] = v
	case ir.QIndex:
		return setElem(e.shadows[loc.Layer].arrays[loc.Name], e.eval(loc.Idx), v)
	case ir.QHdr:
		e.vary[ir.Key(loc)] = v
	default:
		return false
	}
	return true
}

// apply writes updates whose values (and indices) are read in pre.
func (e *stackEnv) apply(updates []QAssign, pre *stackEnv) {
	for _, u := range updates {
		v := pre.eval(u.Val)
		switch tgt := u.Target.(type) {
		case ir.QVar:
			e.shadows[tgt.Layer].scalars[tgt.Name] = v
		case ir.QIndex:
			setElem(e.shadows[tgt.Layer].arrays[tgt.Name], pre.eval(tgt.Idx), v)
		}
	}
}

// invariantsHold reports whether every layer's state is one it can be in.
func (e *stackEnv) invariantsHold(defs []*ir.LayerDef) bool {
	for _, def := range defs {
		for _, inv := range def.Invariants {
			if e.eval(ir.Qualify(def.Name, inv)) == 0 {
				return false
			}
		}
	}
	return true
}

func (e *stackEnv) clone() *stackEnv {
	cp := &stackEnv{shadows: map[string]*shadowState{}, ev: e.ev, vary: e.vary}
	for name, s := range e.shadows {
		cp.shadows[name] = s.clone()
	}
	return cp
}

// VerifyUpTheorem re-checks a composed up theorem against the reference
// semantics. A frame is drawn at random and biased so that the CCP
// holds; wherever it then does, interpreting the IR of the layers the
// theorem covers, bottom first, must not fall back, and must leave the
// state, run the effects and end as the theorem claims: it delivers, or
// it consumes — parking as the interpreter does, or releasing, where run
// once per released message the layers above must be left as
// interpreting their IR for each message leaves them. Where the CCP
// fails the arrival takes the stack, which is its own reference. A
// theorem without a common case claims nothing beyond its false CCP.
func VerifyUpTheorem(th *StackTheorem, sig WireSig, trials int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	m, top := len(sig.Entries), len(th.Names)-len(sig.Entries)
	fail := func(format string, args ...any) error {
		return fmt.Errorf("opt: verify %s %s (signature %#x): %s", th.Names[top], th.Path, sig.ID(), fmt.Sprintf(format, args...))
	}
	if !th.Delivered && !th.Consumed {
		if len(th.CCP) != 1 || th.CCP[0] != ir.False || len(th.Updates) > 0 || len(th.Effects) > 0 {
			return fail("neither delivers nor consumes, but claims a common case")
		}
		return nil
	}
	// The layers the theorem covers, bottom first: all of the signature's,
	// or those up to a parking one.
	covered := m
	if th.Park != nil {
		covered = m - th.Park.HdrsAbove
	}
	defs := make([]*ir.LayerDef, m) // by signature entry
	for e := range sig.Entries {
		def, err := ir.LookupDef(sig.Entries[e].Layer)
		if err != nil {
			return err
		}
		defs[e] = def
	}
	var upper []*ir.LayerDef // the layers a release hands messages to, top first
	if th.Release != nil {
		for _, name := range th.Release.Names {
			def, err := ir.LookupDef(name)
			if err != nil {
				return err
			}
			upper = append(upper, def)
		}
	}
	held := 0
	for t := 0; t < trials; t++ {
		env := &stackEnv{shadows: map[string]*shadowState{}, vary: map[string]int64{}}
		for e, def := range defs {
			env.shadows[sig.Entries[e].Layer] = newShadow(def, th.N, rng)
		}
		for _, def := range upper {
			env.shadows[def.Name] = newShadow(def, th.N, rng)
		}
		env.ev = ir.EvInfo{Peer: rng.Int63n(int64(th.N)), Len: rng.Int63n(256), Appl: true, Rank: int64(th.Rank), N: int64(th.N)}
		for _, q := range sig.Varying() {
			env.vary[ir.Key(q)] = rng.Int63n(64)
		}
		for _, conj := range th.CCP {
			bias(conj, true, env.eval, env.assign, rng)
		}
		holds := true
		for _, conj := range th.CCP {
			holds = holds && env.eval(conj) != 0
		}
		if !holds || !env.invariantsHold(defs) {
			continue
		}
		held++

		// Reference: the covered layers, interpreted bottom first.
		ref := env.clone()
		var effects []ir.EffectCall
		var last ir.Outcome
		for e := m - 1; e >= m-covered; e-- {
			entry, def := &sig.Entries[e], defs[e]
			spec, err := def.HdrSpecByVariant(entry.Variant)
			if err != nil {
				return err
			}
			hdr := map[string]int64{"tag": spec.Tag}
			for _, f := range entry.Fields {
				hdr[f.Name] = f.Val
				if !f.Const {
					hdr[f.Name] = env.vary[ir.Key(ir.QHdr{Layer: entry.Layer, Field: f.Name})]
				}
			}
			frame := &ir.Frame{B: ref.shadows[entry.Layer].binding(entry.Layer), Ev: env.ev, Hdr: hdr}
			out, err := ir.Interp(def, th.Path, frame)
			if err != nil {
				return fail("interp %s: %v", entry.Layer, err)
			}
			if out.Fell {
				return fail("the CCP holds, but %s falls back (%s)", entry.Layer, out.Reason)
			}
			effects = append(effects, out.Effects...)
			last = out
		}
		if last.Delivered != th.Delivered || last.Consumed != th.Consumed ||
			(last.Parked == nil) != (th.Park == nil) || (last.Released == nil) != (th.Release == nil) {
			return fail("continuation mismatch at the top: interp %+v, theorem delivered=%v consumed=%v", last, th.Delivered, th.Consumed)
		}

		// The theorem: reads in the pre-state, then the writes.
		post := env.clone()
		post.apply(th.Updates, env)
		var park *ir.Park
		var rel *ir.Release
		if th.Park != nil {
			park = &th.Park.Park
		}
		if th.Release != nil {
			rel = &th.Release.Release
		}
		if err := sameHolds(park, rel, last, env.eval); err != nil {
			return fail("%v", err)
		}
		if th.Release != nil {
			// Each released message: the layers above interpreted bottom
			// first, against the theorem's per-message writes.
			ev := env.ev
			ev.Peer = last.Released.Peer
			for k := int64(0); k < last.Released.Count; k++ {
				for j := len(upper) - 1; j >= 0; j-- {
					def := upper[j]
					frame := &ir.Frame{B: ref.shadows[def.Name].binding(def.Name), Ev: ev, Hdr: map[string]int64{"tag": def.Hdrs[0].Tag}}
					if out, err := ir.Interp(def, th.Path, frame); err != nil || out.Fell {
						return fail("released message %d falls back at %s (%v)", k, def.Name, err)
					}
				}
				post.apply(th.Release.Updates, post.clone())
			}
		}
		for name, want := range ref.shadows {
			got := post.shadows[name]
			if !reflect.DeepEqual(want.scalars, got.scalars) || !reflect.DeepEqual(want.arrays, got.arrays) {
				return fail("state of %s:\n interp: %v %v\n theorem: %v %v", name, want.scalars, want.arrays, got.scalars, got.arrays)
			}
		}
		if len(effects) != len(th.Effects) {
			return fail("%d effects, interp ran %d", len(th.Effects), len(effects))
		}
		for i, te := range th.Effects {
			if te.Name != effects[i].Name {
				return fail("effect %d is %s, interp ran %s", i, te.Name, effects[i].Name)
			}
			for j, arg := range te.Args {
				if got := env.eval(arg); got != effects[i].Args[j] {
					return fail("effect %s arg %d: theorem %d, interp %d", te.Name, j, got, effects[i].Args[j])
				}
			}
		}
	}
	if held == 0 {
		return fail("no random frame satisfied the CCP")
	}
	return nil
}

// VerifyAll derives and verifies every theorem of every layer in a
// stack, and every up theorem composed from them — the re-checking pass the tool runs before trusting a
// composition.
func VerifyAll(names []string, n int, trials int, seed int64) error {
	base := NewFacts()
	base.AddEq(ir.EvField("appl"), 1)
	base.AddEq(ir.EvField("n"), int64(n))
	for _, name := range names {
		def, err := ir.LookupDef(name)
		if err != nil {
			return err
		}
		for rank := 0; rank < n; rank++ {
			rb := base.Clone()
			rb.AddEq(ir.EvField("rank"), int64(rank))
			ths, _ := DeriveAll(def, rb)
			for _, th := range ths {
				if _, err := VerifyLayerTheorem(def, th, n, rank, trials, seed); err != nil {
					return err
				}
			}
			// Alternate common cases are explicit author claims: unlike a
			// primary CCP too weak to isolate a path, a non-deriving
			// alternate is an error, and each derived alternate theorem is
			// re-checked like the primary ones.
			// An alternate the rank contradicts (a sequencer's, at another
			// member) claims nothing there.
			for _, path := range ir.AllPaths() {
				for _, alt := range def.AltCCP[path] {
					if Simplify(alt, withInvariants(def, rb)) == ir.False {
						continue
					}
					th, err := DeriveLayerTheorem(def, path, alt, rb)
					if err != nil {
						return fmt.Errorf("opt: alt CCP of %s %s: %w", def.Name, path, err)
					}
					if _, err := VerifyLayerTheorem(def, th, n, rank, trials, seed); err != nil {
						return err
					}
				}
			}
		}
	}
	// The up theorems an engine compiles: one per signature any rank can
	// emit, at every receiving rank.
	for _, sig := range sendable(names, n).all() {
		for rank := 0; rank < n; rank++ {
			th, err := ComposeUp(names, ir.PathKey{Dir: event.Up, Kind: sig.Path.Kind}, rank, n, sig)
			if err != nil {
				return err
			}
			if err := VerifyUpTheorem(th, sig, 5*trials, seed); err != nil {
				return err
			}
		}
	}
	return nil
}
