package ir

import (
	"fmt"
	"strings"

	"ensemble/internal/event"
)

// LValue is an assignable location: a Var or an Index.
type LValue interface {
	Expr
	isLValue()
}

func (Var) isLValue()   {}
func (Index) isLValue() {}

// Action is one step of a selected rule. The shapes are constrained to
// what the composition theorems handle: a data path rule either
// continues the message linearly (push/pop its header), bounces a copy
// (the local layer's self-delivery), or falls back to the full stack.
type Action interface {
	fmt.Stringer
	isAction()
}

// Assign updates a state variable.
type Assign struct {
	Target LValue
	Val    Expr
}

// PushHdr pushes this layer's header and continues the message downward
// (the linear down-going shape).
type PushHdr struct{ H HdrCons }

// PopDeliver pops this layer's header and continues the message upward
// (the linear up-going shape).
type PopDeliver struct{}

// Bounce reflects a copy of the down-going message upward before it
// continues down (the local layer). The copy re-enters the layers above
// this one, which is what the Bounce composition theorem captures.
type Bounce struct{}

// CallEffect invokes a named opaque operation on the layer state —
// buffering a sent message for retransmission, typically. Effects are
// the non-critical processing the bypass defers until after the send
// (paper §4, optimization 3).
type CallEffect struct {
	Name string
	Args []Expr
}

// Consume terminates an up-going message at this layer: the header is
// popped and the message is absorbed rather than passed further up — the
// shape of pure control traffic (an ack arriving at its sender). Layers
// above this one never see the event, so a consuming theorem composes
// into a partial stack theorem.
type Consume struct{}

// Park consumes the up-going message at this layer by holding it: the
// layer's named hold (HoldSpec) keeps the event, with the headers of the
// layers above still on it, under the evaluated Args, until a Release
// hands it on. It is the one consuming shape that may end an arrival
// below the top of its signature.
type Park struct {
	Hold string
	Args []Expr
}

// Release, in a rule that consumes its own message, hands Count messages
// the named hold parked on to the layers above, oldest first, each as an
// arrival from Peer: the continuation each would have had, had it not
// been parked. Args select them in the hold (HoldSpec.Take).
type Release struct {
	Hold        string
	Args        []Expr
	Peer, Count Expr
}

// Fallback abandons the bypass: this input is not a common case.
type Fallback struct{ Reason string }

func (Assign) isAction()     {}
func (PushHdr) isAction()    {}
func (PopDeliver) isAction() {}
func (Bounce) isAction()     {}
func (CallEffect) isAction() {}
func (Consume) isAction()    {}
func (Park) isAction()       {}
func (Release) isAction()    {}
func (Fallback) isAction()   {}

func (a Assign) String() string { return fmt.Sprintf("%s := %s", a.Target, a.Val) }
func (p PushHdr) String() string {
	return fmt.Sprintf("push %s", p.H)
}
func (PopDeliver) String() string { return "pop; deliver" }
func (Bounce) String() string     { return "bounce copy up" }
func (c CallEffect) String() string {
	return fmt.Sprintf("effect %s(%s)", c.Name, exprsString(c.Args))
}
func (Consume) String() string { return "pop; consume" }
func (p Park) String() string {
	return fmt.Sprintf("pop; park in %s(%s)", p.Hold, exprsString(p.Args))
}
func (r Release) String() string {
	return fmt.Sprintf("pop; consume; release %s parked in %s(%s) up from %s", r.Count, r.Hold, exprsString(r.Args), r.Peer)
}

func exprsString(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}
func (f Fallback) String() string { return "fallback: " + f.Reason }

// HdrFieldVal is one field of a constructed header.
type HdrFieldVal struct {
	Name string
	Val  Expr
}

// HdrCons describes the header a layer pushes: a variant plus field
// values.
type HdrCons struct {
	Layer   string
	Variant string
	Fields  []HdrFieldVal
}

// String renders the construction, e.g. mnak.Data(seqno: s.my_seq).
func (h HdrCons) String() string {
	if len(h.Fields) == 0 {
		return fmt.Sprintf("%s.%s", h.Layer, h.Variant)
	}
	parts := make([]string, len(h.Fields))
	for i, f := range h.Fields {
		parts[i] = fmt.Sprintf("%s: %s", f.Name, f.Val)
	}
	return fmt.Sprintf("%s.%s(%s)", h.Layer, h.Variant, strings.Join(parts, ", "))
}

// Rule is one guarded alternative of a layer path: the first rule whose
// guard holds fires.
type Rule struct {
	Guard   Expr
	Actions []Action
}

// String renders the rule.
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "when %s:\n", r.Guard)
	for _, a := range r.Actions {
		fmt.Fprintf(&b, "  %s\n", a)
	}
	return strings.TrimRight(b.String(), "\n")
}

// PathKey selects one of the four fundamental cases the optimizer
// handles per layer (§4.1.2): down- or up-going events for point-to-point
// sending and broadcasting.
type PathKey struct {
	Dir  event.Dir
	Kind event.Type // ECast or ESend
}

// String renders e.g. "Dn/Cast".
func (k PathKey) String() string { return fmt.Sprintf("%s/%s", k.Dir, k.Kind) }

// The four fundamental cases.
var (
	DnCast = PathKey{Dir: event.Dn, Kind: event.ECast}
	DnSend = PathKey{Dir: event.Dn, Kind: event.ESend}
	UpCast = PathKey{Dir: event.Up, Kind: event.ECast}
	UpSend = PathKey{Dir: event.Up, Kind: event.ESend}
)

// AllPaths lists the four fundamental cases in a fixed order.
func AllPaths() []PathKey { return []PathKey{DnCast, DnSend, UpCast, UpSend} }

// LayerIR is a layer's data-path behaviour: an ordered rule list per
// fundamental case.
type LayerIR struct {
	Layer string
	Paths map[PathKey][]Rule
}

// HdrSpec describes one header variant of a layer: its discriminant tag
// (the value of the pseudo-field "tag"), its field names in wire order,
// its wire contract, and the bridges to the executable header values.
type HdrSpec struct {
	Variant string
	Tag     int64
	Fields  []string
	// On lists the event kinds the variant rides, and Fate says what its
	// layer does with it on arrival: the wire contract that
	// transport.UnmarshalFor holds every decoded header to, so a handler
	// never meets a variant its peers do not send it.
	On   []event.Type
	Fate Fate
	// Make builds the executable header from field values (in Fields
	// order). The slice is caller-owned scratch: Make must not retain it.
	Make func(fields []int64) event.Header
	// Read appends the field values of an executable header of this
	// variant to dst, caller-owned scratch, and returns the result; it
	// reports false (and dst unchanged) for other variants.
	Read func(h event.Header, dst []int64) ([]int64, bool)
}

// Fate is what a layer does with an arriving header variant. The zero
// value declares nothing, which a codec refuses.
type Fate uint8

const (
	// PassedUp: the layer pops the header and passes the event up.
	PassedUp Fate = iota + 1
	// PassedUpAsCast: the layer passes the event up re-typed as a cast
	// (a retransmitted cast carried point-to-point).
	PassedUpAsCast
	// Consumed: the layer absorbs the event, so no header rides above
	// this one.
	Consumed
)

// VarSpec binds one IR state variable to a live layer state. Exactly one
// of the scalar pair and the array pair is set.
type VarSpec struct {
	Name  string
	Get   func() int64
	Set   func(int64)
	GetAt func(i int64) int64
	SetAt func(i int64, v int64)
}

// StateModel is implemented by layer states that expose their variables
// to the optimizer; the compiled bypass shares state with the running
// stack through these accessors.
type StateModel interface {
	IRVars() []VarSpec
}

// EffectCtx carries the runtime arguments of an effect invocation.
type EffectCtx struct {
	// Args holds the evaluated effect arguments. Like Hdrs, the slice is
	// caller-owned transient scratch: read the values, don't keep it.
	Args    []int64
	Payload []byte
	ApplMsg bool
	// Hdrs is the header stack of the message as the layers above this
	// one built it (down paths) or will see it (up paths), NHdrs headers
	// in the transport's encoding (outermost first) — produced by the
	// bypass from the optimization theorem, for effects that ask
	// (EffectSpec.Hdrs), so that what they buffer is byte-identical to
	// what the full stack would have buffered. Like Args it is
	// caller-owned scratch: an effect that keeps the bytes copies them.
	Hdrs  []byte
	NHdrs int
}

// EffectSpec binds a named effect to a live layer state.
type EffectSpec struct {
	Name string
	// Hdrs asks for EffectCtx.Hdrs: the effect buffers the message.
	Hdrs bool
	Run  func(ctx EffectCtx)
}

// EffectModel is implemented by layer states with bypass effects.
type EffectModel interface {
	IREffects() []EffectSpec
}

// HoldSpec binds a named hold — where a layer parks messages it cannot
// pass on yet — to a live layer state. The interpreted handler parks and
// releases through the same hold, so the compiled path and the stack
// share it.
type HoldSpec struct {
	Name string
	// Park keeps ev, an up-going message with this layer's header popped,
	// under args. It owns ev either way: it reports false, having freed
	// it, when the hold refuses it.
	Park func(args []int64, ev *event.Event) bool
	// Take removes and returns the oldest message held under args (a
	// Release's), nil when there is none.
	Take func(args []int64) *event.Event
}

// HoldModel is implemented by layer states with holds.
type HoldModel interface {
	IRHolds() []HoldSpec
}
