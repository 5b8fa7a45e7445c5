package opt

import (
	"fmt"
	"slices"

	"ensemble/internal/event"
	"ensemble/internal/ir"
)

// Control-path specialization. Data events enter the engine at Cast,
// Send, and Packet, where the dispatch can check a CCP before anything
// runs. Control messages are different: they originate mid-stack (a
// pt2pt acknowledgment, a retransmission from the sweep) and exit at
// the stack's net boundary already fully formed. The engine therefore
// recognizes them structurally on the way out — match the exiting
// header stack against a known control wire signature — and emits the
// compressed image instead of the full marshaled one. The receiving
// side needs no new mechanism at all: the control signature gets a
// composed up theorem and a compiled up path like any data signature,
// keyed by the same 16-bit identifier.
//
// Three control shapes are specialized here:
//
//   - pt2pt's explicit acknowledgment (pt2pt.Ack over the layers below
//     pt2pt), whose up theorem *consumes* the event at pt2pt — a
//     partial-stack theorem;
//   - pt2pt's retransmission (the saved data send with the pt2pt entry
//     retyped to Retrans), whose up theorem spans the full stack and
//     delivers exactly like in-order data;
//   - the sequencer's order announcement (total.Order cast over the
//     layers below total). total has no common case for it, so its up
//     theorem stops below total — a static split: the compiled code
//     runs the reliability and flow-control layers and total interprets
//     the header.
//
// mnak's NAK-driven retransmissions and collect's stability gossip
// remain interpreted: the former retypes a *cast* signature mid-stack
// under mnak-specific buffering, the latter's gossip header is not
// IR-constructible. Both are rare next to the traffic above, and the
// interpreted stack remains their (correct) path.

// ctrlSpec pairs a control wire signature with its dispatch path
// identities.
type ctrlSpec struct {
	pid   PathID // sender-side recognizer
	upPid PathID // receive-side bypass
	sig   WireSig
	// probeLayer is the discriminating entry: the layer whose variant
	// differs from the data signatures sharing this depth, probed first
	// so mismatches are rejected on one type assertion.
	probeLayer string
}

// controlSigs derives the control wire signatures a member at the given
// rank can emit; dnSend is that rank's data-send theorem (nil for none).
// An empty result (no such layer in the stack, or a layer below it that
// defies derivation) simply means no control specialization — never an
// error.
func controlSigs(names []string, rank int, dnSend *StackTheorem) []ctrlSpec {
	var out []ctrlSpec
	if i := slices.Index(names, "pt2pt"); i >= 0 {
		ack := SigEntry{Layer: "pt2pt", Variant: "Ack", Fields: []SigField{{Name: "ack"}}}
		if sig, ok := midStackSig(names, i, ir.DnSend, ack, rank); ok {
			out = append(out, ctrlSpec{pid: PathDnCtrlAck, upPid: PathUpAck, sig: sig, probeLayer: "pt2pt"})
		}
		if sig, ok := retransSig(dnSend); ok {
			out = append(out, ctrlSpec{pid: PathDnCtrlRetrans, upPid: PathUpRetrans, sig: sig, probeLayer: "pt2pt"})
		}
	}
	// Only the sequencer (rank 0) announces.
	if i := slices.Index(names, "total"); i >= 0 && rank == 0 {
		order := SigEntry{Layer: "total", Variant: "Order", Fields: []SigField{{Name: "origin"}, {Name: "lseq"}, {Name: "gseq"}, {Name: "count"}}}
		if sig, ok := midStackSig(names, i, ir.DnCast, order, rank); ok {
			out = append(out, ctrlSpec{pid: PathDnCtrlOrder, upPid: PathUpHandoff, sig: sig, probeLayer: "total"})
		}
	}
	return out
}

// midStackSig builds the signature of a message that originates at
// names[idx]: that layer pushes the given header and the event descends
// through the layers below, each contributing its push for the path.
// Field values that simplify to constants under the rank facts become
// signature constants; everything else rides the wire.
func midStackSig(names []string, idx int, path ir.PathKey, top SigEntry, rank int) (WireSig, bool) {
	sig := WireSig{Path: path, Entries: []SigEntry{top}}
	base := NewFacts()
	base.AddEq(ir.EvField("rank"), int64(rank))
	base.AddEq(ir.EvField("appl"), 1)
	for _, name := range names[idx+1:] {
		def, err := ir.LookupDef(name)
		if err != nil {
			return WireSig{}, false
		}
		ccp, ok := def.CCP[path]
		if !ok {
			return WireSig{}, false
		}
		lt, err := DeriveLayerTheorem(def, path, ccp, base)
		if err != nil || lt.Push == nil {
			return WireSig{}, false
		}
		e := SigEntry{Layer: name, Variant: lt.Push.Variant}
		for _, fv := range lt.Push.Fields {
			if c, isConst := SimplifyVal(fv.Val, base).(ir.Const); isConst {
				e.Fields = append(e.Fields, SigField{Name: fv.Name, Const: true, Val: int64(c)})
			} else {
				e.Fields = append(e.Fields, SigField{Name: fv.Name})
			}
		}
		sig.Entries = append(sig.Entries, e)
	}
	return sig, true
}

// retransSig is the data-send signature with the pt2pt entry retyped to
// Retrans: the sweep resends the saved upper headers verbatim and the
// layers below re-push, so only pt2pt's own entry differs from a live
// send. Both of its fields (seqno of the saved message, current ack)
// are wire inputs.
func retransSig(dnSend *StackTheorem) (WireSig, bool) {
	if dnSend == nil {
		return WireSig{}, false
	}
	sig := SignatureOf(dnSend)
	entry := sig.Entry("pt2pt")
	if entry == nil {
		return WireSig{}, false
	}
	entry.Variant = "Retrans"
	entry.Fields = []SigField{{Name: "seqno"}, {Name: "ack"}}
	return sig, true
}

// ctrlField is one constant-checked header field (index into the
// spec's Read order).
type ctrlField struct {
	idx int
	val int64
}

// ctrlEntry matches one header of a control stack.
type ctrlEntry struct {
	spec   *ir.HdrSpec
	consts []ctrlField
	varies []int // Read indices of wire fields, in signature field order
}

// ctrlMatcher recognizes one control wire shape at the stack's net
// exit. The depth check and the probe entry's type assertion reject
// non-matching stacks first; field values are read into the matcher's
// own scratch, so a match allocates nothing either. One buffer per
// matcher suffices, like the engine's other recognizer buffers: the net
// exit is never re-entered while a recognizer runs.
type ctrlMatcher struct {
	pid     PathID
	id      uint16
	cast    bool // the shape is a cast's (a send's otherwise)
	probe   int
	entries []ctrlEntry
	vals    []int64
}

func newCtrlMatcher(cs ctrlSpec) (*ctrlMatcher, error) {
	m := &ctrlMatcher{pid: cs.pid, id: cs.sig.ID(), cast: cs.sig.Path.Kind == event.ECast, probe: -1}
	for i, en := range cs.sig.Entries {
		def, err := ir.LookupDef(en.Layer)
		if err != nil {
			return nil, err
		}
		spec, err := def.HdrSpecByVariant(en.Variant)
		if err != nil {
			return nil, err
		}
		idxOf := map[string]int{}
		for j, fn := range spec.Fields {
			idxOf[fn] = j
		}
		ce := ctrlEntry{spec: spec}
		for _, f := range en.Fields {
			j, ok := idxOf[f.Name]
			if !ok {
				return nil, fmt.Errorf("opt: control field %s.%s not in spec", en.Layer, f.Name)
			}
			if f.Const {
				ce.consts = append(ce.consts, ctrlField{idx: j, val: f.Val})
			} else {
				ce.varies = append(ce.varies, j)
			}
		}
		m.entries = append(m.entries, ce)
		if en.Layer == cs.probeLayer {
			m.probe = i
		}
	}
	if m.probe < 0 {
		m.probe = 0
	}
	return m, nil
}

// match tests an exiting header stack (in push order, top first — the
// same order sig.Entries uses) and, on success, appends the varying
// field values in wire order.
func (m *ctrlMatcher) match(hdrs []event.Header, vary []int64) ([]int64, bool) {
	if len(hdrs) != len(m.entries) || !m.read(m.probe, hdrs) {
		return vary, false
	}
	for i := range m.entries {
		if !m.read(i, hdrs) {
			return vary, false
		}
		for _, j := range m.entries[i].varies {
			vary = append(vary, m.vals[j])
		}
	}
	return vary, true
}

// read reads entry i's header into m.vals and checks its constants.
func (m *ctrlMatcher) read(i int, hdrs []event.Header) bool {
	en := &m.entries[i]
	vals, ok := en.spec.Read(hdrs[i], m.vals[:0])
	m.vals = vals
	if !ok {
		return false
	}
	for _, c := range en.consts {
		if vals[c.idx] != c.val {
			return false
		}
	}
	return true
}
