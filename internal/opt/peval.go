// Package opt is the optimization tool: the counterpart of the paper's
// Nuprl-based pipeline (§4.1). It partially evaluates each layer's IR
// under Common Case Predicates to derive per-layer optimization
// theorems (the static level, §4.1.2), composes them into stack
// optimization theorems using linear and bounce composition (the dynamic
// level, §4.1.3), derives header compression from the free variables of
// the composed theorem, and compiles the result into executable bypass
// code that shares state with the running stack. Where the paper proves
// each step inside Nuprl, this package re-checks each derivation by
// interpretation (see verify.go) and the test suite cross-validates the
// bypass against the full stack on random traffic.
package opt

import (
	"fmt"

	"ensemble/internal/ir"
)

// Facts is a conjunction of assumed atomic predicates: equalities that
// rewrite subexpressions to constants, lower bounds, and boolean
// expressions known to hold or fail. Keys are canonical renderings
// (structural identity).
type Facts struct {
	eq    map[string]int64
	min   map[string]int64 // rendered expr → least value it can take
	truth map[string]bool  // rendered expr → holds (true) / fails (false)
}

// NewFacts returns an empty assumption set.
func NewFacts() *Facts {
	return &Facts{eq: map[string]int64{}, min: map[string]int64{}, truth: map[string]bool{}}
}

// Clone copies the assumption set.
func (f *Facts) Clone() *Facts {
	g := NewFacts()
	for k, v := range f.eq {
		g.eq[k] = v
	}
	for k, v := range f.min {
		g.min[k] = v
	}
	for k, v := range f.truth {
		g.truth[k] = v
	}
	return g
}

// withInvariants is base plus a layer's state invariants, the facts
// every guard and CCP of the layer may be simplified under: base itself
// for a layer without any, which the caller must then not extend.
func withInvariants(def *ir.LayerDef, base *Facts) *Facts {
	if len(def.Invariants) == 0 {
		return base
	}
	f := base.Clone()
	for _, inv := range def.Invariants {
		f.Assume(inv)
	}
	return f
}

// AddEq assumes e == v.
func (f *Facts) AddEq(e ir.Expr, v int64) {
	f.eq[ir.Key(e)] = v
}

// Assume decomposes a boolean expression into atomic facts: conjunctions
// split, equalities against constants become rewrites, everything else
// is recorded as a true atom. Each atom is also recorded in its
// fact-rewritten form: an earlier equality may rewrite one of its
// subterms to a constant, and the rewritten rendering must still be
// recognized as assumed (e.g. hdr.gseq = -1 turns the conjunct
// hdr.gseq == next_global into -1 == next_global, which in turn implies
// next_global = -1 under the assumption).
func (f *Facts) Assume(e ir.Expr) { f.assume(e, 0) }

func (f *Facts) assume(e ir.Expr, depth int) {
	// The rewritten form is computed before the atom is recorded
	// (afterwards it would just simplify to True).
	var rewritten ir.Expr
	if depth < 4 {
		if r := Simplify(e, f); ir.Key(r) != ir.Key(e) {
			if _, isConst := r.(ir.Const); !isConst {
				rewritten = r
			}
		}
	}
	switch e := e.(type) {
	case ir.Const:
		return
	case ir.Bin:
		if x, c, op, ok := againstConst(e); ok {
			switch op {
			case ir.OpGe:
				f.raiseMin(x, c)
			case ir.OpGt:
				f.raiseMin(x, c+1)
			}
		}
		switch e.Op {
		case ir.OpAnd:
			f.assume(e.L, depth)
			f.assume(e.R, depth)
			return
		case ir.OpEq:
			if c, ok := e.R.(ir.Const); ok {
				f.AddEq(e.L, int64(c))
			} else if c, ok := e.L.(ir.Const); ok {
				f.AddEq(e.R, int64(c))
			}
			f.truth[ir.Key(e)] = true
			if rewritten != nil {
				f.assume(rewritten, depth+1)
			}
			return
		}
	case ir.Not:
		f.truth[ir.Key(e.E)] = false
		return
	}
	f.truth[ir.Key(e)] = true
	if rewritten != nil {
		f.assume(rewritten, depth+1)
	}
}

func (f *Facts) raiseMin(x ir.Expr, v int64) {
	k := ir.Key(x)
	if cur, ok := f.min[k]; !ok || v > cur {
		f.min[k] = v
	}
}

// flipped is each comparison with its operands swapped.
var flipped = map[ir.Op]ir.Op{ir.OpEq: ir.OpEq, ir.OpNe: ir.OpNe, ir.OpLt: ir.OpGt, ir.OpLe: ir.OpGe, ir.OpGt: ir.OpLt, ir.OpGe: ir.OpLe}

// againstConst reads a comparison with one constant side as x op c, the
// constant on the right.
func againstConst(b ir.Bin) (x ir.Expr, c int64, op ir.Op, ok bool) {
	if _, cmp := flipped[b.Op]; !cmp {
		return nil, 0, 0, false
	}
	if rc, isConst := b.R.(ir.Const); isConst {
		if _, both := b.L.(ir.Const); !both {
			return b.L, int64(rc), b.Op, true
		}
	}
	if lc, isConst := b.L.(ir.Const); isConst {
		return b.R, int64(lc), flipped[b.Op], true
	}
	return nil, 0, 0, false
}

// decideByBound folds a comparison of a bounded expression with a
// constant the bound decides: with x >= 0 known, x == -1 is false.
func decideByBound(e ir.Expr, f *Facts) ir.Expr {
	b, isBin := e.(ir.Bin)
	if !isBin || len(f.min) == 0 {
		return e
	}
	x, c, op, ok := againstConst(b)
	if !ok {
		return e
	}
	lo, bounded := f.min[ir.Key(x)]
	if !bounded {
		return e
	}
	switch {
	case (op == ir.OpEq || op == ir.OpLe) && c < lo, op == ir.OpLt && c <= lo:
		return ir.False
	case (op == ir.OpNe || op == ir.OpGt) && c < lo, op == ir.OpGe && c <= lo:
		return ir.True
	}
	return e
}

// Simplify rewrites a boolean-position expression (a guard or CCP)
// under the facts: fact-directed substitution, constant folding, and
// boolean algebra — the paper's "function inlining and symbolic
// evaluation" plus "directed equality substitutions" and
// "context-dependent simplifications" (§4.1.2), scaled to the IR's
// expression language. Truth facts and truthiness-only identities apply
// in boolean positions; SimplifyVal is the value-exact variant for
// arithmetic positions (assignments, header fields, effect arguments).
func Simplify(e ir.Expr, f *Facts) ir.Expr { return simplify(e, f, true) }

// SimplifyVal rewrites a value-position expression: every rewrite
// preserves the exact integer value, not merely truthiness.
func SimplifyVal(e ir.Expr, f *Facts) ir.Expr { return simplify(e, f, false) }

// boolShaped reports whether an expression is guaranteed 0/1-valued,
// making truthiness-preserving rewrites also value-preserving.
func boolShaped(e ir.Expr) bool {
	switch e := e.(type) {
	case ir.Const:
		return e == 0 || e == 1
	case ir.Not:
		return true
	case ir.Bin:
		switch e.Op {
		case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpAnd, ir.OpOr:
			return true
		}
	}
	return false
}

// asBool coerces an expression to a 0/1 value for use in a value
// position: boolean-shaped expressions already are; anything else is
// wrapped in a != 0 test.
func asBool(e ir.Expr) ir.Expr {
	if boolShaped(e) {
		return e
	}
	if c, ok := e.(ir.Const); ok {
		if c != 0 {
			return ir.True
		}
		return ir.False
	}
	return ir.Ne(e, ir.Const(0))
}

func simplify(e ir.Expr, f *Facts, boolCtx bool) ir.Expr {
	// An equality fact about the whole expression replaces it outright
	// (exact, so valid in any position).
	if v, ok := f.eq[ir.Key(e)]; ok {
		return ir.Const(v)
	}
	switch e := e.(type) {
	case ir.Bin:
		childCtx := false
		if e.Op == ir.OpAnd || e.Op == ir.OpOr {
			// Connective operands are truthiness positions.
			childCtx = true
		}
		l := simplify(e.L, f, childCtx)
		r := simplify(e.R, f, childCtx)
		out := decideByBound(fold(ir.Bin{Op: e.Op, L: l, R: r}, boolCtx), f)
		return applyTruth(out, f, boolCtx)
	case ir.Not:
		inner := simplify(e.E, f, true)
		if c, ok := inner.(ir.Const); ok {
			if c == 0 {
				return ir.True
			}
			return ir.False
		}
		return applyTruth(ir.Not{E: inner}, f, boolCtx)
	case ir.Index:
		out := ir.Index{Name: e.Name, Idx: simplify(e.Idx, f, false)}
		return applyEqOrSelf(out, f, boolCtx)
	case ir.QIndex:
		out := ir.QIndex{Layer: e.Layer, Name: e.Name, Idx: simplify(e.Idx, f, false)}
		return applyEqOrSelf(out, f, boolCtx)
	default:
		return applyEqOrSelf(e, f, boolCtx)
	}
}

func applyEqOrSelf(e ir.Expr, f *Facts, boolCtx bool) ir.Expr {
	if v, ok := f.eq[ir.Key(e)]; ok {
		return ir.Const(v)
	}
	return applyTruth(e, f, boolCtx)
}

// applyTruth rewrites an expression known true (false) to 1 (0). For
// boolean-shaped expressions this is exact; for anything else it only
// preserves truthiness and is restricted to boolean positions.
func applyTruth(e ir.Expr, f *Facts, boolCtx bool) ir.Expr {
	if !boolCtx && !boolShaped(e) {
		return e
	}
	if holds, ok := f.truth[ir.Key(e)]; ok {
		if holds {
			return ir.True
		}
		return ir.False
	}
	return e
}

// fold applies constant folding and algebraic identities to a binary
// node whose children are already simplified. boolCtx governs whether
// truthiness-only identities may change exact values.
func fold(b ir.Bin, boolCtx bool) ir.Expr {
	lc, lok := b.L.(ir.Const)
	rc, rok := b.R.(ir.Const)
	if lok && rok {
		return ir.Const(evalConst(b.Op, int64(lc), int64(rc)))
	}
	keep := func(x ir.Expr) ir.Expr {
		// x replaces (x && true)-style nodes: exact only when x is 0/1.
		if boolCtx {
			return x
		}
		return asBool(x)
	}
	switch b.Op {
	case ir.OpAnd:
		if lok {
			if lc == 0 {
				return ir.False
			}
			return keep(b.R)
		}
		if rok {
			if rc == 0 {
				return ir.False
			}
			return keep(b.L)
		}
	case ir.OpOr:
		if lok {
			if lc != 0 {
				return ir.True
			}
			return keep(b.R)
		}
		if rok {
			if rc != 0 {
				return ir.True
			}
			return keep(b.L)
		}
	case ir.OpAdd:
		if lok && lc == 0 {
			return b.R
		}
		if rok && rc == 0 {
			return b.L
		}
	case ir.OpSub:
		if rok && rc == 0 {
			return b.L
		}
		if ir.Key(b.L) == ir.Key(b.R) {
			return ir.Const(0)
		}
	case ir.OpMul:
		if lok && lc == 1 {
			return b.R
		}
		if rok && rc == 1 {
			return b.L
		}
		if (lok && lc == 0) || (rok && rc == 0) {
			return ir.Const(0)
		}
	case ir.OpEq, ir.OpLe, ir.OpGe:
		if ir.Key(b.L) == ir.Key(b.R) {
			return ir.True
		}
	case ir.OpNe, ir.OpLt, ir.OpGt:
		if ir.Key(b.L) == ir.Key(b.R) {
			return ir.False
		}
	}
	return b
}

func evalConst(op ir.Op, l, r int64) int64 {
	bi := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case ir.OpAdd:
		return l + r
	case ir.OpSub:
		return l - r
	case ir.OpMul:
		return l * r
	case ir.OpEq:
		return bi(l == r)
	case ir.OpNe:
		return bi(l != r)
	case ir.OpLt:
		return bi(l < r)
	case ir.OpLe:
		return bi(l <= r)
	case ir.OpGt:
		return bi(l > r)
	case ir.OpGe:
		return bi(l >= r)
	case ir.OpAnd:
		return bi(l != 0 && r != 0)
	case ir.OpOr:
		return bi(l != 0 || r != 0)
	}
	panic(fmt.Sprintf("opt: unknown op %v", op))
}
