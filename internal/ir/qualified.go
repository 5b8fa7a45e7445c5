package ir

// Qualified expression leaves. A layer's IR names its own variables
// unqualified; when the optimizer composes theorems across a stack it
// rewrites each layer's references into these qualified forms so the
// composed program has one flat namespace (paper §4.1.3: the state of
// the combined layer is the tuple of the individual states).

// QVar is a scalar state variable of a named layer.
type QVar struct{ Layer, Name string }

// QIndex is an array element of a named layer.
type QIndex struct {
	Layer, Name string
	Idx         Expr
}

// QHdr is a wire header field of a named layer, an input of the
// receive-path bypass (decoded from the compressed image or fixed by the
// stack identifier).
type QHdr struct{ Layer, Field string }

func (QVar) isExpr()   {}
func (QIndex) isExpr() {}
func (QHdr) isExpr()   {}

func (v QVar) String() string   { return Key(v) }
func (i QIndex) String() string { return Key(i) }
func (h QHdr) String() string   { return Key(h) }

func (QVar) isLValue()   {}
func (QIndex) isLValue() {}

// Qualify rewrites a layer-scoped expression into the composed
// namespace: Var/Index pick up the layer, HdrField becomes QHdr.
func Qualify(layer string, e Expr) Expr {
	return Rename(e, func(x Expr) Expr {
		switch x := x.(type) {
		case Var:
			return QVar{Layer: layer, Name: string(x)}
		case Index:
			return QIndex{Layer: layer, Name: x.Name, Idx: x.Idx}
		case HdrField:
			return QHdr{Layer: layer, Field: string(x)}
		default:
			return x
		}
	})
}
