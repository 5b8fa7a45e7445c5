package opt

import (
	"slices"

	"ensemble/internal/ir"
)

// Control-path specialization. Data events enter the engine at Cast,
// Send, and Packet, where the dispatch can check a CCP before anything
// runs. Control messages are different: they originate mid-stack (a
// pt2pt acknowledgment, a retransmission from the sweep) and exit at
// the stack's net boundary already fully formed. The engine therefore
// recognizes them structurally on the way out — its signature table
// (sigcodec.go) matches the exiting header stack against the known
// control wire signatures — and emits the compressed image instead of
// the full marshaled one. The receiving side needs no new mechanism at
// all: the control signature gets a composed up theorem and a compiled
// up path like any data signature, keyed by the same 16-bit identifier,
// and a plain member rebuilds it from the same table.
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
//     layers below total), whose up theorem consumes it at total and
//     releases the casts it orders from where they were parked — at
//     every member but the sequencer, which has no common case for it:
//     its path there sends every arrival to the stack, and none comes,
//     as casts do not loop back.
//
// mnak's NAK-driven retransmissions and collect's stability gossip
// remain TLV: the former retypes a *cast* signature mid-stack under
// mnak-specific buffering, the latter's gossip header is not
// IR-constructible.

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
// rank can emit; dnSend is that rank's data-send signature (nil for none).
// An empty result (no such layer in the stack, or a layer below it that
// defies derivation) simply means no control specialization — never an
// error.
func controlSigs(names []string, rank int, dnSend *WireSig) []ctrlSpec {
	var out []ctrlSpec
	if i := slices.Index(names, "pt2pt"); i >= 0 {
		if sig, ok := midStackSig(names, i, ir.DnSend, "Ack", rank); ok {
			out = append(out, ctrlSpec{pid: PathDnCtrlAck, upPid: PathUpAck, sig: sig, probeLayer: "pt2pt"})
		}
		if sig, ok := retransSig(dnSend); ok {
			out = append(out, ctrlSpec{pid: PathDnCtrlRetrans, upPid: PathUpRetrans, sig: sig, probeLayer: "pt2pt"})
		}
	}
	// Only the sequencer (rank 0) announces.
	if i := slices.Index(names, "total"); i >= 0 && rank == 0 {
		if sig, ok := midStackSig(names, i, ir.DnCast, "Order", rank); ok {
			out = append(out, ctrlSpec{pid: PathDnCtrlOrder, upPid: PathUpOrder, sig: sig, probeLayer: "total"})
		}
	}
	return out
}

// specEntry is the signature entry of a header variant all of whose
// fields ride the wire, in its spec's field order; false when the layer
// declares no such variant.
func specEntry(layer, variant string) (SigEntry, bool) {
	def, err := ir.LookupDef(layer)
	if err != nil {
		return SigEntry{}, false
	}
	spec, err := def.HdrSpecByVariant(variant)
	if err != nil {
		return SigEntry{}, false
	}
	e := SigEntry{Layer: layer, Variant: variant}
	for _, f := range spec.Fields {
		e.Fields = append(e.Fields, SigField{Name: f})
	}
	return e, true
}

// midStackSig builds the signature of a message that originates at
// names[idx]: that layer pushes the given variant, every field of it a
// wire input, and the event descends
// through the layers below, each contributing its push for the path.
// Field values that simplify to constants under the rank facts become
// signature constants; everything else rides the wire.
func midStackSig(names []string, idx int, path ir.PathKey, variant string, rank int) (WireSig, bool) {
	top, ok := specEntry(names[idx], variant)
	if !ok {
		return WireSig{}, false
	}
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
// send. All of its fields (seqno of the saved message, current ack)
// are wire inputs.
func retransSig(dnSend *WireSig) (WireSig, bool) {
	if dnSend == nil {
		return WireSig{}, false
	}
	sig := WireSig{Path: dnSend.Path, Entries: slices.Clone(dnSend.Entries)}
	entry := sig.Entry("pt2pt")
	retrans, ok := specEntry("pt2pt", "Retrans")
	if entry == nil || !ok {
		return WireSig{}, false
	}
	*entry = retrans
	return sig, true
}
