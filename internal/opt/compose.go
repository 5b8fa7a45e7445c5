package opt

import (
	"fmt"
	"hash/fnv"
	"strings"

	"ensemble/internal/ir"
)

// StackTheorem is a stack optimization theorem (paper §4.1.3, Fig. 5):
// the composition of per-layer theorems into a single bypass description
// for one fundamental case of one protocol stack. All expressions are in
// the composed namespace (QVar/QIndex/QHdr) and — crucially — in
// *pre-state* terms: the composer symbolically executes the per-layer
// updates, so every guard and right-hand side refers to the state before
// the bypass runs. The compiled bypass therefore evaluates all reads
// first, then applies all writes.
type StackTheorem struct {
	Names []string // top first
	Path  ir.PathKey
	Rank  int
	N     int

	// CCP is the conjunction (as a list) of every layer's common-case
	// predicate, threaded through the symbolic store. It is evaluated at
	// run time to choose between the bypass and the full stack (Fig. 4).
	CCP []ir.Expr

	// Updates are the composed state assignments, pre-state RHS.
	Updates []QAssign

	// Headers are the headers a down path pushes, in push order (the
	// topmost layer's header first). Up-path theorems carry the headers
	// they consume in the same order, with field values as wire inputs.
	Headers []QHeader

	// Effects are the deferred operations, with enough position
	// information to materialize the header stack each one captures.
	Effects []QEffect

	// SelfDeliver marks a down path that also delivers the cast locally
	// (the bounce through the layers above local).
	SelfDeliver bool

	// Delivered marks an up path that delivers to the application.
	Delivered bool

	// Consumed marks an up path absorbed below the application — pure
	// control traffic (a pt2pt acknowledgment arriving back at its
	// sender), or a message parked. The theorem covers only the layers
	// from the bottom up to and including the consuming one.
	Consumed bool

	// Park, on an up path, is the layer that consumes the arrival by
	// parking it; on a down path, the one that parks the bounced
	// self-delivery copy, whose bounce then ends there. Release
	// is the loop a consuming up path runs to hand parked messages on.
	Park    *QPark
	Release *QRelease
}

// QPark is a composed ir.Park: the parking layer and its hold, the hold's
// arguments in pre-state terms, and how many of the theorem's Headers —
// those of the layers above the parking one, topmost first — stay on the
// parked event.
type QPark struct {
	Layer string
	ir.Park
	HdrsAbove int
}

// QRelease is a composed ir.Release: the hold, its arguments and the
// released messages' origin and count (pre-state terms of the consuming
// arrival), and the theorem of the layers above — Names, top first — for
// one released message: Updates in terms of the state before that
// message, with the event's peer bound to Peer. Those layers' common case
// holds unconditionally and the last one delivers, which is what lets
// the loop run without a check per message.
type QRelease struct {
	Layer string
	ir.Release
	Names   []string
	Updates []QAssign
}

// QAssign is a composed-namespace assignment.
type QAssign struct {
	Target ir.LValue // QVar or QIndex
	Val    ir.Expr
}

// QHeader is one layer's header contribution with pre-state field
// expressions.
type QHeader struct {
	Layer   string
	Variant string
	Fields  []ir.HdrFieldVal
	Spec    *ir.HdrSpec
}

// QEffect is a deferred effect in the composed program.
type QEffect struct {
	Layer string
	Name  string
	Args  []ir.Expr
	// HdrsAbove is how many of Headers were pushed by layers above the
	// effect's layer: the slice Headers[:HdrsAbove] is the header stack
	// the effect captures (topmost first).
	HdrsAbove int
}

// String renders the composed theorem in the paper's style.
func (t *StackTheorem) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "OPTIMIZING STACK %s\n", strings.Join(t.Names, "|||"))
	fmt.Fprintf(&b, "FOR   EVENT %s (rank %d of %d)\n", t.Path, t.Rank, t.N)
	switch {
	case len(t.CCP) == 0:
		fmt.Fprintf(&b, "ASSUMING true\n")
	case len(t.CCP) == 1 && t.CCP[0] == ir.False:
		fmt.Fprintf(&b, "ASSUMING false\n")
	default:
		fmt.Fprintf(&b, "ASSUMING %s\n", exprList(t.CCP, " ∧ "))
	}
	var evs []string
	if len(t.Headers) > 0 && t.Path.Dir.String() == "Dn" {
		hs := make([]string, len(t.Headers))
		for i, h := range t.Headers {
			hs[i] = h.render()
		}
		evs = append(evs, fmt.Sprintf("DnM(ev, %s)", strings.Join(hs, "·")))
	}
	if t.SelfDeliver {
		evs = append(evs, "UpM(copy ev)")
	}
	if t.Delivered {
		evs = append(evs, "UpM(ev)")
	}
	switch {
	case t.Park != nil:
		evs = append(evs, fmt.Sprintf("park ev in %s.%s(%s)", t.Park.Layer, t.Park.Hold, exprList(t.Park.Args, ", ")))
	case t.Release != nil:
		r := t.Release
		evs = append(evs, fmt.Sprintf("consume ev; release %s parked in %s.%s(%s) as UpM from %s", r.Count, r.Layer, r.Hold, exprList(r.Args, ", "), r.Peer))
	case t.Consumed:
		evs = append(evs, "consume ev")
	}
	fmt.Fprintf(&b, "YIELDS EVENTS [:%s:]\n", strings.Join(evs, "; "))
	if len(t.Updates) == 0 {
		fmt.Fprintf(&b, "AND   STATE unchanged")
	} else {
		var ups []string
		for _, u := range t.Updates {
			ups = append(ups, fmt.Sprintf("%s := %s", u.Target, u.Val))
		}
		fmt.Fprintf(&b, "AND   STATE { %s }", strings.Join(ups, "; "))
	}
	for _, e := range t.Effects {
		fmt.Fprintf(&b, "\nDEFER %s.%s(%s)", e.Layer, e.Name, exprList(e.Args, ", "))
	}
	if r := t.Release; r != nil && len(r.Updates) > 0 {
		var ups []string
		for _, u := range r.Updates {
			ups = append(ups, fmt.Sprintf("%s := %s", u.Target, u.Val))
		}
		fmt.Fprintf(&b, "\nPER RELEASED STATE { %s }", strings.Join(ups, "; "))
	}
	return b.String()
}

func (h QHeader) render() string {
	if len(h.Fields) == 0 {
		return fmt.Sprintf("%s.%s", h.Layer, h.Variant)
	}
	parts := make([]string, len(h.Fields))
	for i, f := range h.Fields {
		parts[i] = fmt.Sprintf("%s:%s", f.Name, f.Val)
	}
	return fmt.Sprintf("%s.%s(%s)", h.Layer, h.Variant, strings.Join(parts, ","))
}

func exprList(es []ir.Expr, sep string) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, sep)
}

// symStore is the composer's symbolic state: composed-namespace location
// key → pre-state expression for its current value.
type symStore map[string]ir.Expr

// subst rewrites state references through the store (QHdr references are
// captured wire or push-time values and are never substituted).
func subst(e ir.Expr, store symStore) ir.Expr {
	switch x := e.(type) {
	case ir.Bin:
		return ir.Bin{Op: x.Op, L: subst(x.L, store), R: subst(x.R, store)}
	case ir.Not:
		return ir.Not{E: subst(x.E, store)}
	case ir.QIndex:
		qi := ir.QIndex{Layer: x.Layer, Name: x.Name, Idx: subst(x.Idx, store)}
		if v, ok := store[ir.Key(qi)]; ok {
			return v
		}
		return qi
	case ir.QVar:
		if v, ok := store[ir.Key(x)]; ok {
			return v
		}
		return x
	default:
		return e
	}
}

// replaceHdr substitutes QHdr references of one layer with captured
// push-time expressions (the bounce composition) — other layers' QHdr
// references are left as wire inputs.
func replaceHdr(e ir.Expr, layer string, fields map[string]ir.Expr) ir.Expr {
	switch x := e.(type) {
	case ir.Bin:
		return ir.Bin{Op: x.Op, L: replaceHdr(x.L, layer, fields), R: replaceHdr(x.R, layer, fields)}
	case ir.Not:
		return ir.Not{E: replaceHdr(x.E, layer, fields)}
	case ir.QIndex:
		return ir.QIndex{Layer: x.Layer, Name: x.Name, Idx: replaceHdr(x.Idx, layer, fields)}
	case ir.QHdr:
		if x.Layer == layer {
			if v, ok := fields[x.Field]; ok {
				return v
			}
		}
		return x
	default:
		return e
	}
}

// composer threads one theorem after another through the symbolic store.
type composer struct {
	th    *StackTheorem
	store symStore
	base  *Facts
}

// thread incorporates one qualified layer theorem: its CCP joins the
// composed CCP, its updates enter the store, its push/effects/flags are
// recorded. hdrCapture maps the layer's popped header fields to captured
// expressions — push-time values for a bounce, wire inputs or
// signature constants for up paths; nil on plain down paths.
func (c *composer) thread(layerName string, lt *LayerTheorem, def *ir.LayerDef, hdrCapture map[string]ir.Expr) error {
	// Pipeline: qualify into the composed namespace, rewrite state
	// references through the symbolic store (post-update values in
	// pre-state terms), then replace this layer's header references with
	// their captured values (which are already pre-state and must not be
	// re-substituted), and simplify — truthiness-preserving rewrites for
	// the CCP conjunct, value-exact ones everywhere else.
	pipeline := func(e ir.Expr) ir.Expr {
		q := ir.Qualify(layerName, e)
		q = subst(q, c.store)
		if hdrCapture != nil {
			q = replaceHdr(q, layerName, hdrCapture)
		}
		return q
	}
	qual := func(e ir.Expr) ir.Expr { return SimplifyVal(pipeline(e), c.base) }
	switch conj := Simplify(pipeline(lt.Assumed), c.base); conj {
	case ir.True:
	case ir.False:
		return fmt.Errorf("opt: composed CCP is unsatisfiable at layer %q (%s)", layerName, lt.Assumed)
	default:
		c.th.CCP = append(c.th.CCP, conj)
	}
	hdrsAbove := len(c.th.Headers)
	for _, eff := range lt.Effects {
		qe := QEffect{Layer: layerName, Name: eff.Name, HdrsAbove: hdrsAbove}
		for _, a := range eff.Args {
			qe.Args = append(qe.Args, qual(a))
		}
		c.th.Effects = append(c.th.Effects, qe)
	}
	if lt.Push != nil {
		spec, err := def.HdrSpecByVariant(lt.Push.Variant)
		if err != nil {
			return err
		}
		qh := QHeader{Layer: layerName, Variant: lt.Push.Variant, Spec: spec}
		for _, fv := range lt.Push.Fields {
			qh.Fields = append(qh.Fields, ir.HdrFieldVal{Name: fv.Name, Val: qual(fv.Val)})
		}
		c.th.Headers = append(c.th.Headers, qh)
	}
	if lt.Park != nil {
		// The caller knows which headers stay on the parked event.
		c.th.Park = &QPark{Layer: layerName, Park: ir.Park{Hold: lt.Park.Hold, Args: qualAll(lt.Park.Args, qual)}}
	}
	if r := lt.Release; r != nil {
		c.th.Release = &QRelease{Layer: layerName, Release: ir.Release{Hold: r.Hold, Args: qualAll(r.Args, qual),
			Peer: qual(r.Peer), Count: qual(r.Count)}}
	}
	for _, u := range lt.Updates {
		var tgt ir.LValue
		switch t := u.Target.(type) {
		case ir.Var:
			tgt = ir.QVar{Layer: layerName, Name: string(t)}
		case ir.Index:
			idxQ := qual(t.Idx)
			tgt = ir.QIndex{Layer: layerName, Name: t.Name, Idx: idxQ}
		default:
			return fmt.Errorf("opt: unexpected assignment target %T", u.Target)
		}
		val := qual(u.Val)
		c.store[ir.Key(tgt.(ir.Expr))] = val
		c.th.Updates = append(c.th.Updates, QAssign{Target: tgt, Val: val})
	}
	return nil
}

func qualAll(es []ir.Expr, qual func(ir.Expr) ir.Expr) []ir.Expr {
	out := make([]ir.Expr, len(es))
	for i, e := range es {
		out[i] = qual(e)
	}
	return out
}

// ComposeDn builds the stack optimization theorem for a down-going path
// of the named stack (top first), for the member at the given rank. The
// bounce composition routes the local layer's self-delivery copy back
// through the up paths of the layers above it; its conjuncts join the
// CCP like any layer's.
func ComposeDn(names []string, path ir.PathKey, rank, n int) (*StackTheorem, error) {
	base := viewFacts(rank, n)
	c := &composer{
		th:    &StackTheorem{Names: names, Path: path, Rank: rank, N: n},
		store: symStore{},
		base:  base,
	}
	for i, name := range names {
		def, err := ir.LookupDef(name)
		if err != nil {
			return nil, err
		}
		ccp, ok := def.CCP[path]
		if !ok {
			return nil, fmt.Errorf("opt: layer %q has no CCP for %s", name, path)
		}
		lt, err := DeriveLayerTheorem(def, path, ccp, base)
		if err != nil {
			return nil, err
		}
		if err := c.thread(name, lt, def, nil); err != nil {
			return nil, err
		}
		if lt.Bounced {
			// A copy whose path through the upper layers is not a common
			// case leaves the path without a bypass: the whole cast, wire
			// and copy, then takes the stack.
			if err := c.bounce(names[:i], path, rank); err != nil {
				return nil, err
			}
		}
	}
	return c.th, nil
}

// viewFacts are the facts every path of the member at rank in a view of
// n shares: the view constants, and an application event.
func viewFacts(rank, n int) *Facts {
	f := NewFacts()
	f.AddEq(ir.EvField("rank"), int64(rank))
	f.AddEq(ir.EvField("n"), int64(n))
	f.AddEq(ir.EvField("appl"), 1)
	return f
}

// bounce composes the reflected self-delivery copy through the up paths
// of the layers above the bouncing layer, innermost first. The copy's
// header fields are the expressions each layer pushed on the way down,
// captured pre-state; its origin is this member's own rank. A layer
// that parks the copy ends the segment there: nothing is delivered.
func (c *composer) bounce(upper []string, dnPath ir.PathKey, rank int) error {
	upPath := ir.PathKey{Dir: 1 - dnPath.Dir, Kind: dnPath.Kind} // Dn -> Up
	// The bounced copy's event frame: peer is our own rank.
	bounceBase := c.base.Clone()
	bounceBase.AddEq(ir.EvField("peer"), int64(rank))
	savedBase := c.base
	c.base = bounceBase
	defer func() { c.base = savedBase }()

	for j := len(upper) - 1; j >= 0; j-- {
		name := upper[j]
		def, err := ir.LookupDef(name)
		if err != nil {
			return err
		}
		// Captured header fields: what this layer pushed on the way
		// down, plus the variant tag.
		capture := map[string]ir.Expr{}
		var pushed *QHeader
		at := 0
		for k := range c.th.Headers {
			if c.th.Headers[k].Layer == name {
				pushed, at = &c.th.Headers[k], k
				break
			}
		}
		if pushed == nil {
			return fmt.Errorf("opt: bounce through %q, which pushed no header", name)
		}
		capture["tag"] = ir.Const(pushed.Spec.Tag)
		for _, fv := range pushed.Fields {
			capture[fv.Name] = fv.Val
		}

		// Derive with header facts where they are constants, so guards
		// like hdr.tag == Data resolve and a common case the copy's
		// constants contradict is passed over.
		derBase := bounceBase.Clone()
		for f, e := range capture {
			if cst, isConst := e.(ir.Const); isConst {
				derBase.AddEq(ir.HdrField(f), int64(cst))
			}
		}
		lt, err := deriveUpEntry(def, upPath, derBase)
		if err != nil {
			return fmt.Errorf("opt: bounce through %q: %w", name, err)
		}
		if err := c.thread(name, lt, def, capture); err != nil {
			return err
		}
		switch {
		case lt.Park != nil:
			c.th.Park.HdrsAbove = at
			return nil
		case lt.Consumed:
			return fmt.Errorf("opt: bounce through %q consumes the copy", name)
		}
		if j == 0 && lt.Delivered {
			c.th.SelfDeliver = true
		}
	}
	return nil
}

// ComposeUp builds the stack optimization theorem for an up-going path,
// given the wire signature of the sending bypass (which header variants
// were pushed and which fields are compile-time constants). The
// signature is what the compressed wire format's stack identifier
// denotes, so sender and receiver agree on it without negotiation. Its
// entries must be the stack's bottom-most layers, in stack order.
//
// Up events traverse bottom first, so the layers are threaded bottom-up.
// A consuming layer theorem (pure control traffic) ends the traversal at
// the signature's top entry; a releasing one composes the layers above
// for the messages it releases (QRelease). A parking layer ends it at any
// entry: the headers above stay on the parked event. A layer with no
// derivable rule for the signature (total on an Order header it cannot
// act on) leaves the signature without a common case: the theorem keeps
// only the Headers, its CCP is false, and every arrival takes the stack.
func ComposeUp(names []string, path ir.PathKey, rank, n int, sig WireSig) (*StackTheorem, error) {
	c := &composer{
		th:    &StackTheorem{Names: names, Path: path, Rank: rank, N: n},
		store: symStore{},
		base:  viewFacts(rank, n),
	}
	top := len(names) - len(sig.Entries)
	if top < 0 {
		return nil, fmt.Errorf("opt: signature has %d entries, the stack %d layers", len(sig.Entries), len(names))
	}
	c.th.Headers = make([]QHeader, len(sig.Entries))
	split := false
	for e := len(sig.Entries) - 1; e >= 0; e-- {
		entry, name := &sig.Entries[e], names[top+e]
		if entry.Layer != name {
			return nil, fmt.Errorf("opt: signature entry %d is for layer %q, the stack has %q there", e, entry.Layer, name)
		}
		def, err := ir.LookupDef(name)
		if err != nil {
			return nil, err
		}
		spec, err := def.HdrSpecByVariant(entry.Variant)
		if err != nil {
			return nil, err
		}
		// Header facts: the variant tag is fixed by the signature, and
		// so is every constant field.
		derBase := c.base.Clone()
		derBase.AddEq(ir.HdrField("tag"), spec.Tag)
		capture := map[string]ir.Expr{"tag": ir.Const(spec.Tag)}
		// The consumed header, so the bypass can rebuild the header stack
		// of an arrival it parks or hands to the stack.
		qh := QHeader{Layer: name, Variant: entry.Variant, Spec: spec}
		for _, f := range entry.Fields {
			if f.Const {
				derBase.AddEq(ir.HdrField(f.Name), f.Val)
				capture[f.Name] = ir.Const(f.Val)
			} else {
				capture[f.Name] = ir.QHdr{Layer: name, Field: f.Name}
			}
			qh.Fields = append(qh.Fields, ir.HdrFieldVal{Name: f.Name, Val: capture[f.Name]})
		}
		c.th.Headers[e] = qh
		if c.th.Park != nil || split {
			continue // above a parking layer, or no common case
		}
		nEff := len(c.th.Effects)
		// A release whose layers above do not compose leaves the
		// signature without a common case too.
		lt, err := deriveUpEntry(def, path, derBase)
		if err == nil {
			err = c.thread(name, lt, def, capture)
		}
		if err == nil && lt.Release != nil {
			err = c.release(names[:top+e], path)
		}
		if err != nil {
			split = true
			continue
		}
		// The header stack an effect captures is what the layers above
		// it will see: the e entries above this one.
		for k := nEff; k < len(c.th.Effects); k++ {
			c.th.Effects[k].HdrsAbove = e
		}
		switch {
		case lt.Park != nil:
			c.th.Park.HdrsAbove = e
			c.th.Consumed = true
		case lt.Consumed && e > 0:
			return nil, fmt.Errorf("opt: layer %q consumes the event below the signature's top entry", name)
		case lt.Consumed:
			c.th.Consumed = true
		case e == 0 && top > 0:
			return nil, fmt.Errorf("opt: signature ends at layer %q, which passes the event on", name)
		case e == 0:
			c.th.Delivered = lt.Delivered
		}
	}
	if split {
		return &StackTheorem{Names: names, Path: path, Rank: rank, N: n, CCP: []ir.Expr{ir.False}, Headers: c.th.Headers}, nil
	}
	return c.th, nil
}

// release composes, into the theorem's Release, the up paths of the
// layers above the releasing one (upper, top first) for one released
// message: each layer's common case for a message whose headers are not
// known here, threaded in a store of its own — the loop runs it once per
// message, each time from the state the previous one left — with the
// event's peer bound to the release's origin. It fails unless that
// common case holds unconditionally, reads no header, defers nothing and
// ends in a delivery: what lets the loop run without a check per
// message.
func (c *composer) release(upper []string, path ir.PathKey) error {
	r := c.th.Release
	if len(upper) == 0 {
		return fmt.Errorf("opt: %s releases into nothing", r.Layer)
	}
	seg := &composer{th: &StackTheorem{Names: upper, Path: path}, store: symStore{}, base: c.base}
	for j := len(upper) - 1; j >= 0; j-- {
		def, err := ir.LookupDef(upper[j])
		if err != nil {
			return err
		}
		lt, err := deriveUpEntry(def, path, c.base)
		if err != nil {
			return err
		}
		if lt.Consumed || lt.Bounced || lt.Push != nil || (j == 0) != lt.Delivered {
			return fmt.Errorf("opt: a message %s releases does not reach the application through %q", r.Layer, upper[j])
		}
		if err := seg.thread(upper[j], lt, def, nil); err != nil {
			return err
		}
	}
	if len(seg.th.CCP) > 0 || len(seg.th.Effects) > 0 {
		return fmt.Errorf("opt: the layers above %s have no unconditional common case for a released message", r.Layer)
	}
	bind := func(e ir.Expr) ir.Expr {
		return ir.Rename(e, func(x ir.Expr) ir.Expr {
			if x == ir.EvField("peer") {
				return r.Peer
			}
			return x
		})
	}
	for _, u := range seg.th.Updates {
		var readsHdr bool
		for _, e := range []ir.Expr{u.Target, u.Val} {
			ir.Walk(e, func(x ir.Expr) {
				switch x.(type) {
				case ir.QHdr, ir.EvField:
					readsHdr = readsHdr || x != ir.EvField("peer")
				}
			})
		}
		if readsHdr {
			return fmt.Errorf("opt: %s := %s reads what a released message does not carry", u.Target, u.Val)
		}
		r.Updates = append(r.Updates, QAssign{Target: bind(u.Target).(ir.LValue), Val: bind(u.Val)})
	}
	r.Names = upper
	return nil
}

// deriveUpEntry derives the up-path theorem for one layer of a
// signature, trying the layer's primary CCP first and then each
// alternate common case in registration order. A candidate that
// contradicts the signature's header facts is rejected *before*
// derivation: assuming a contradictory tag equality would overwrite the
// pinned fact and silently select the wrong rule.
func deriveUpEntry(def *ir.LayerDef, path ir.PathKey, derBase *Facts) (*LayerTheorem, error) {
	var candidates []ir.Expr
	if ccp, ok := def.CCP[path]; ok {
		candidates = append(candidates, ccp)
	}
	candidates = append(candidates, def.AltCCP[path]...)
	if len(candidates) == 0 {
		return nil, fmt.Errorf("opt: layer %q has no CCP for %s", def.Name, path)
	}
	var firstErr error
	facts := withInvariants(def, derBase)
	for _, ccp := range candidates {
		if Simplify(ccp, facts) == ir.False {
			continue
		}
		lt, err := DeriveLayerTheorem(def, path, ccp, derBase)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return lt, nil
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, fmt.Errorf("opt: layer %q %s: no common-case candidate is consistent with the signature", def.Name, path)
}

// WireSig is the wire-level shape of one composed down path: which
// header variant each layer pushes and which fields are constants. Equal
// signatures produce equal compressed formats; the 16-bit identifier in
// the compressed image is a hash of this structure.
type WireSig struct {
	Path    ir.PathKey
	Entries []SigEntry // push order, top first
}

// SigEntry is one layer's contribution to the signature.
type SigEntry struct {
	Layer   string
	Variant string
	Fields  []SigField
}

// SigField is one header field: a compile-time constant or a varying
// wire field.
type SigField struct {
	Name  string
	Const bool
	Val   int64
}

// Entry finds a layer's entry.
func (s *WireSig) Entry(layer string) *SigEntry {
	for i := range s.Entries {
		if s.Entries[i].Layer == layer {
			return &s.Entries[i]
		}
	}
	return nil
}

// Varying lists the varying wire fields in wire order (push order).
func (s *WireSig) Varying() []ir.QHdr {
	var out []ir.QHdr
	for _, e := range s.Entries {
		for _, f := range e.Fields {
			if !f.Const {
				out = append(out, ir.QHdr{Layer: e.Layer, Field: f.Name})
			}
		}
	}
	return out
}

// ID hashes the signature into the wire identifier. Both ends compute it
// from the same composed theorem, so it doubles as a consistency check:
// a receiver that cannot reconstruct the signature treats the packet as
// undecodable.
func (s *WireSig) ID() uint16 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s", s.Path)
	for _, e := range s.Entries {
		fmt.Fprintf(h, "|%s.%s", e.Layer, e.Variant)
		for _, f := range e.Fields {
			if f.Const {
				fmt.Fprintf(h, ",%s=%d", f.Name, f.Val)
			} else {
				fmt.Fprintf(h, ",%s=*", f.Name)
			}
		}
	}
	v := h.Sum64()
	return uint16(v) ^ uint16(v>>16) ^ uint16(v>>32) ^ uint16(v>>48)
}

// SignatureOf extracts the wire signature from a down-path stack
// theorem.
func SignatureOf(th *StackTheorem) WireSig {
	sig := WireSig{Path: th.Path}
	for _, h := range th.Headers {
		e := SigEntry{Layer: h.Layer, Variant: h.Variant}
		for _, fv := range h.Fields {
			if c, ok := fv.Val.(ir.Const); ok {
				e.Fields = append(e.Fields, SigField{Name: fv.Name, Const: true, Val: int64(c)})
			} else {
				e.Fields = append(e.Fields, SigField{Name: fv.Name})
			}
		}
		sig.Entries = append(sig.Entries, e)
	}
	return sig
}
