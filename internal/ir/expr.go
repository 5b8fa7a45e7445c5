// Package ir defines a small intermediate representation for the data
// paths of micro-protocol layers: guarded event-condition-action rules
// over integer state variables, event fields, and header fields. It is
// the counterpart of the paper's import of Ensemble's OCaml code into
// Nuprl's logical language (§4.1.2): each layer author expresses the
// layer's behaviour in the IR (and the test suite validates the IR
// against the executable layer differentially, standing in for the
// semantics-preserving importer). The optimizer (internal/opt) partially
// evaluates the IR under Common Case Predicates, derives per-layer
// optimization theorems, composes them, and compiles the result into
// bypass code.
package ir

import (
	"fmt"
	"strconv"
)

// Op enumerates binary operators. Comparisons and connectives yield 0/1.
type Op int8

const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var opNames = [...]string{"+", "-", "*", "==", "!=", "<", "<=", ">", ">=", "&&", "||"}

// String renders the operator.
func (o Op) String() string { return opNames[o] }

// Expr is an integer-valued expression; booleans are 0/1.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// Const is a literal.
type Const int64

// True and False are the boolean literals.
const (
	False = Const(0)
	True  = Const(1)
)

// Var reads a scalar state variable of the layer under optimization.
type Var string

// Index reads an element of a rank-indexed state array.
type Index struct {
	Name string
	Idx  Expr
}

// EvField reads a field of the event being processed: "peer" (origin or
// destination rank), "len" (payload length), "appl" (application-payload
// flag), "rank" (this member's rank: constant per view, exposed as an
// event field so specialization can fold it), "n" (the view's size, a
// view constant too).
type EvField string

// HdrField reads a field of the layer's own popped header on the up
// path. The pseudo-field "tag" is the variant discriminant.
type HdrField string

// Bin applies a binary operator.
type Bin struct {
	Op   Op
	L, R Expr
}

// Not negates a boolean expression.
type Not struct{ E Expr }

func (Const) isExpr()    {}
func (Var) isExpr()      {}
func (Index) isExpr()    {}
func (EvField) isExpr()  {}
func (HdrField) isExpr() {}
func (Bin) isExpr()      {}
func (Not) isExpr()      {}

func (c Const) String() string    { return Key(c) }
func (v Var) String() string      { return Key(v) }
func (i Index) String() string    { return Key(i) }
func (f EvField) String() string  { return Key(f) }
func (f HdrField) String() string { return Key(f) }
func (b Bin) String() string      { return Key(b) }
func (n Not) String() string      { return Key(n) }

// Convenience constructors keep the layer IR definitions readable.

// Eq builds l == r.
func Eq(l, r Expr) Expr { return Bin{Op: OpEq, L: l, R: r} }

// Ne builds l != r.
func Ne(l, r Expr) Expr { return Bin{Op: OpNe, L: l, R: r} }

// Lt builds l < r.
func Lt(l, r Expr) Expr { return Bin{Op: OpLt, L: l, R: r} }

// Le builds l <= r.
func Le(l, r Expr) Expr { return Bin{Op: OpLe, L: l, R: r} }

// Add builds l + r.
func Add(l, r Expr) Expr { return Bin{Op: OpAdd, L: l, R: r} }

// Sub builds l - r.
func Sub(l, r Expr) Expr { return Bin{Op: OpSub, L: l, R: r} }

// And builds the conjunction of the given expressions (True when empty).
func And(es ...Expr) Expr {
	var out Expr = True
	for i, e := range es {
		if i == 0 {
			out = e
			continue
		}
		out = Bin{Op: OpAnd, L: out, R: e}
	}
	return out
}

// Key returns the canonical string form — what String prints — used
// for fact lookup during partial evaluation. Structural equality of
// rendered forms is the equality the evaluator reasons with, and the
// evaluator asks for a key at every node it visits, so the rendering is
// one append pass, not a Sprintf per node.
func Key(e Expr) string {
	var buf [96]byte
	return string(appendKey(buf[:0], e))
}

func appendKey(b []byte, e Expr) []byte {
	switch e := e.(type) {
	case Const:
		return strconv.AppendInt(b, int64(e), 10)
	case Var:
		return append(append(b, "s."...), e...)
	case Index:
		b = append(append(append(b, "s."...), e.Name...), '[')
		return append(appendKey(b, e.Idx), ']')
	case EvField:
		return append(append(b, "ev."...), e...)
	case HdrField:
		return append(append(b, "hdr."...), e...)
	case Bin:
		b = append(appendKey(append(b, '('), e.L), ' ')
		b = append(append(b, e.Op.String()...), ' ')
		return append(appendKey(b, e.R), ')')
	case Not:
		return append(appendKey(append(b, "!("...), e.E), ')')
	case QVar:
		return append(append(append(append(b, "s_"...), e.Layer...), '.'), e.Name...)
	case QIndex:
		b = append(append(append(append(b, "s_"...), e.Layer...), '.'), e.Name...)
		return append(appendKey(append(b, '['), e.Idx), ']')
	case QHdr:
		return append(append(append(append(b, "hdr_"...), e.Layer...), '.'), e.Field...)
	default:
		panic(fmt.Sprintf("ir: no rendering for expression %T", e))
	}
}

// Walk visits e and every subexpression.
func Walk(e Expr, visit func(Expr)) {
	visit(e)
	switch e := e.(type) {
	case Bin:
		Walk(e.L, visit)
		Walk(e.R, visit)
	case Not:
		Walk(e.E, visit)
	case Index:
		Walk(e.Idx, visit)
	case QIndex:
		Walk(e.Idx, visit)
	}
}

// FreeVars lists the distinct non-constant leaves (state, event, header
// references) in rendering order; the header-compression generator uses
// it to find the varying header fields (§4.1.3: "generated automatically
// by considering the free variables of the events in the optimization
// theorems").
func FreeVars(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	Walk(e, func(x Expr) {
		switch x.(type) {
		case Var, Index, EvField, HdrField:
			k := Key(x)
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	})
	return out
}

// Rename maps a renaming function over every leaf reference, returning a
// structurally new expression. Composition uses it to qualify each
// layer's variables with the layer name.
func Rename(e Expr, f func(Expr) Expr) Expr {
	switch e := e.(type) {
	case Bin:
		return Bin{Op: e.Op, L: Rename(e.L, f), R: Rename(e.R, f)}
	case Not:
		return Not{E: Rename(e.E, f)}
	case Index:
		renamed := f(e)
		switch idx := renamed.(type) {
		case Index:
			return Index{Name: idx.Name, Idx: Rename(idx.Idx, f)}
		case QIndex:
			return QIndex{Layer: idx.Layer, Name: idx.Name, Idx: Rename(idx.Idx, f)}
		}
		return renamed
	case QIndex:
		renamed := f(e)
		if idx, ok := renamed.(QIndex); ok {
			return QIndex{Layer: idx.Layer, Name: idx.Name, Idx: Rename(idx.Idx, f)}
		}
		return renamed
	case Const:
		return e
	default:
		return f(e)
	}
}

// Size reports the number of nodes in the expression; the Table 2(b)
// analogue measures IR sizes with it.
func Size(e Expr) int {
	n := 0
	Walk(e, func(Expr) { n++ })
	return n
}
