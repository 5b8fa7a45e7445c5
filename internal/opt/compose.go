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

	// BounceLayer is the layer that reflects a self-delivery copy (local),
	// "" on a path without one. Bounce[0] and Bounce[1] bound that copy's
	// segment of the theorem: the CCP conjuncts, Updates and Effects the
	// bounce through the layers above BounceLayer contributed. It sits in
	// the middle of each list, right after BounceLayer's own contribution,
	// and is in pre-state terms like the rest, so the theorem without it
	// is by itself the path that sends the same wire image and hands the
	// copy to the shared stack above BounceLayer — one of the "multiple
	// bypass paths" the paper anticipates (§4.1.3). Whether the copy runs
	// inline is decided per event by the segment's conjuncts (a
	// non-sequencer's own cast awaiting its order announcement fails
	// them).
	BounceLayer string
	Bounce      [2]Cut
	// BounceFallback marks a bounce that could not be composed at all:
	// its segment is empty and never holds.
	BounceFallback bool

	// Cuts records, for an up path, where each layer's contribution ends:
	// Cuts[j] counts the CCP conjuncts, Updates and Effects of the j+1
	// bottom-most layers. The layers are threaded bottom first and every
	// expression is in pre-state terms, so the first Cuts[j] entries of
	// each list are by themselves the theorem of those layers: when the
	// first failing conjunct belongs to layer j+1 from the bottom, the
	// bypass runs that prefix and hands the event to the stack there.
	// Fewer cuts than Headers is a static split: the layer above the
	// last cut has no common case for this signature, and every arrival
	// is handed off there (neither Delivered nor Consumed is set).
	Cuts []Cut

	// Delivered marks an up path that delivers to the application.
	Delivered bool

	// Consumed marks an up path absorbed below the application — pure
	// control traffic (a pt2pt acknowledgment arriving back at its
	// sender). The theorem covers only the layers from the bottom up to
	// and including the consuming one; the signature is a partial stack.
	Consumed bool
}

// Cut is a prefix of a theorem's CCP, Updates and Effects, by length.
type Cut struct{ CCP, Updates, Effects int }

// CutBelow is the prefix that belongs to an up theorem's below
// bottom-most layers: what runs when the common case holds for exactly
// those.
func (t *StackTheorem) CutBelow(below int) Cut {
	if below == 0 {
		return Cut{}
	}
	return t.Cuts[below-1]
}

// ConjunctOwners maps each CCP conjunct of an up theorem to the number
// of layers below the one it belongs to: where the event is handed off
// when that conjunct is the first to fail.
func (t *StackTheorem) ConjunctOwners() []int {
	owners := make([]int, 0, len(t.CCP))
	for j, cut := range t.Cuts {
		for len(owners) < cut.CCP {
			owners = append(owners, j)
		}
	}
	return owners
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
	if len(t.CCP) == 0 {
		fmt.Fprintf(&b, "ASSUMING true\n")
	} else {
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
	if t.Consumed {
		evs = append(evs, "consume ev")
	}
	if t.Path.Dir.String() == "Up" && len(t.Cuts) < len(t.Headers) {
		evs = append(evs, fmt.Sprintf("UpM(ev) at %s", t.Headers[len(t.Headers)-1-len(t.Cuts)].Layer))
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
// expressions — push-time values for bounce segments, wire inputs or
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

// ComposeDn builds the stack optimization theorem for a down-going path
// of the named stack (top first), for the member at the given rank. The
// bounce composition routes the local layer's self-delivery copy back
// through the up paths of the layers above it, as the theorem's Bounce
// segment.
func ComposeDn(names []string, path ir.PathKey, rank, n int) (*StackTheorem, error) {
	base := NewFacts()
	base.AddEq(ir.EvField("rank"), int64(rank))
	base.AddEq(ir.EvField("appl"), 1)
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
			// The bounce is composed transactionally: when the reflected
			// copy's path through the upper layers is not a common case,
			// the wire side remains fully specialized and the segment stays
			// empty.
			start := c.cut()
			if trial := c.clone(); trial.bounce(names[:i], path, rank) == nil {
				*c = *trial
			} else {
				c.th.BounceFallback = true
			}
			c.th.BounceLayer = name
			c.th.Bounce = [2]Cut{start, c.cut()}
		}
	}
	return c.th, nil
}

// cut is where the theorem's lists end so far.
func (c *composer) cut() Cut {
	return Cut{CCP: len(c.th.CCP), Updates: len(c.th.Updates), Effects: len(c.th.Effects)}
}

// clone copies the composer so a sub-composition can be attempted and
// discarded.
func (c *composer) clone() *composer {
	th := *c.th
	th.CCP = append([]ir.Expr(nil), c.th.CCP...)
	th.Updates = append([]QAssign(nil), c.th.Updates...)
	th.Headers = append([]QHeader(nil), c.th.Headers...)
	th.Effects = append([]QEffect(nil), c.th.Effects...)
	store := make(symStore, len(c.store))
	for k, v := range c.store {
		store[k] = v
	}
	return &composer{th: &th, store: store, base: c.base}
}

// bounce composes the reflected self-delivery copy through the up paths
// of the layers above the bouncing layer, innermost first. The copy's
// header fields are the expressions each layer pushed on the way down,
// captured pre-state; its origin is this member's own rank.
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
		for k := range c.th.Headers {
			if c.th.Headers[k].Layer == name {
				pushed = &c.th.Headers[k]
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

		ccp, ok := def.CCP[upPath]
		if !ok {
			return fmt.Errorf("opt: layer %q has no CCP for %s", name, upPath)
		}
		// Derive with header facts where they are constants, so guards
		// like hdr.tag == Data resolve.
		derBase := bounceBase.Clone()
		for f, e := range capture {
			if cst, isConst := e.(ir.Const); isConst {
				derBase.AddEq(ir.HdrField(f), int64(cst))
			}
		}
		lt, err := DeriveLayerTheorem(def, upPath, ccp, derBase)
		if err != nil {
			return fmt.Errorf("opt: bounce through %q: %w", name, err)
		}
		if err := c.thread(name, lt, def, capture); err != nil {
			return err
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
// Up events traverse bottom first, so the layers are threaded bottom-up
// and Cuts records where each one's contribution ends. A consuming
// layer theorem (pure control traffic) ends the traversal at the
// signature's top entry. A layer with no derivable rule for the
// signature (total on an Order header) ends it too, as a static split:
// the theorem then covers the layers below only and every arrival is
// handed to the stack at that layer.
func ComposeUp(names []string, path ir.PathKey, rank, n int, sig WireSig) (*StackTheorem, error) {
	base := NewFacts()
	base.AddEq(ir.EvField("rank"), int64(rank))
	base.AddEq(ir.EvField("appl"), 1)
	c := &composer{
		th:    &StackTheorem{Names: names, Path: path, Rank: rank, N: n},
		store: symStore{},
		base:  base,
	}
	top := len(names) - len(sig.Entries)
	if top < 0 {
		return nil, fmt.Errorf("opt: signature has %d entries, the stack %d layers", len(sig.Entries), len(names))
	}
	c.th.Headers = make([]QHeader, len(sig.Entries))
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
		derBase := base.Clone()
		derBase.AddEq(ir.HdrField("tag"), spec.Tag)
		capture := map[string]ir.Expr{"tag": ir.Const(spec.Tag)}
		// The consumed header, so the bypass can rebuild the stack above
		// any layer it hands the event to.
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
		if len(c.th.Cuts) < len(sig.Entries)-1-e {
			continue // above a static split
		}
		nEff := len(c.th.Effects)
		lt, err := deriveUpEntry(def, path, derBase)
		if err == nil {
			err = c.thread(name, lt, def, capture)
		}
		if err != nil {
			continue // static split at this layer
		}
		// The header stack an effect captures is what the layers above
		// it will see: the e entries above this one.
		for k := nEff; k < len(c.th.Effects); k++ {
			c.th.Effects[k].HdrsAbove = e
		}
		c.th.Cuts = append(c.th.Cuts, c.cut())
		switch {
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
	return c.th, nil
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
	for _, ccp := range candidates {
		if Simplify(ccp, derBase) == ir.False {
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
