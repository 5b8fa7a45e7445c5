// Package layers implements the micro-protocol component library: each
// component is specialized to do one task well (paper §1), adheres to the
// common layer interface, and registers itself by name so stacks can be
// configured from component names alone. The library covers the two
// stacks the paper evaluates — the 10-layer stack of Table 2(b)
// (partial_appl, top, local, collect, frag, pt2ptw, mflow, pt2pt, mnak,
// bottom) and the 4-layer stack of Fig. 4 (top, pt2pt, mnak, bottom) —
// plus ordering, failure-detection, and membership components.
package layers

import (
	"ensemble/internal/event"
	"ensemble/internal/ir"
)

// Component names. Stacks are lists of these, top first, matching the
// order Table 2(b) prints them.
const (
	PartialAppl = "partial_appl"
	Top         = "top"
	Local       = "local"
	Collect     = "collect"
	Frag        = "frag"
	Pt2ptw      = "pt2ptw"
	Mflow       = "mflow"
	Pt2pt       = "pt2pt"
	Mnak        = "mnak"
	Bottom      = "bottom"
	Total       = "total"
	Seqno       = "seqno"
	Suspect     = "suspect"
	Membership  = "membership"
	Chk         = "chk"
)

// Wire ids for header codecs, one per component. Fixed so that all
// processes agree on the encoding.
const (
	idBottom byte = iota + 1
	idMnak
	idPt2pt
	idMflow
	idPt2ptw
	idFrag
	idCollect
	idLocal
	idTop
	idPartialAppl
	idTotal
	idSeqno
	idSuspect
	idMembership
	idChk
)

// Stack10 is the paper's 10-layer stack, with exactly the layers Table
// 2(b) lists (top first). It provides reliable virtually synchronous
// delivery of multicast and point-to-point messages with total order,
// flow control, and fragmentation/reassembly (§4.2).
func Stack10() []string {
	return []string{PartialAppl, Total, Local, Collect, Frag, Pt2ptw, Mflow, Pt2pt, Mnak, Bottom}
}

// Stack4 is the paper's 4-layer stack (Fig. 4), used for the comparison
// with hand-optimized bypass code. It provides reliable delivery of
// multicast and point-to-point messages.
func Stack4() []string {
	return []string{Top, Pt2pt, Mnak, Bottom}
}

// StackFifo is a small FIFO stack with fragmentation and self-delivery,
// handy for applications that need neither ordering nor flow control.
func StackFifo() []string {
	return []string{Top, Local, Frag, Pt2pt, Mnak, Bottom}
}

// StackVsync extends the 10-layer stack with failure detection and group
// membership, for the virtual-synchrony examples. Membership sits below
// total so its control casts do not depend on the sequencer (which may be
// the member that failed), and above local so that application traffic
// blocked during a flush is queued before it self-delivers.
func StackVsync() []string {
	return []string{PartialAppl, Total, Membership, Suspect, Local, Collect, Frag, Pt2ptw, Mflow, Pt2pt, Mnak, Bottom}
}

// Each component declares its header variants once, as ir.HdrSpecs: the
// optimizer reads them, the transport builds the layer's codec from them
// (transport.SpecCodec), and their wire contracts — the event kinds a
// variant rides, and whether its layer consumes it — are what
// transport.UnmarshalFor admits. A handler therefore pops only variants
// its contract lets ride the event's kind, and asserts their types.

// The event kinds a header variant rides (ir.HdrSpec.On).
var (
	onCast = []event.Type{event.ECast}
	onSend = []event.Type{event.ESend}
	onData = []event.Type{event.ECast, event.ESend}
)

// bareHdr declares a variant without fields, whose header is H's zero
// value.
func bareHdr[H event.Header](variant string, tag byte, on []event.Type, fate ir.Fate) ir.HdrSpec {
	var zero H
	return ir.HdrSpec{
		Variant: variant, Tag: int64(tag), On: on, Fate: fate,
		Make: func([]int64) event.Header { return zero },
		Read: func(h event.Header, dst []int64) ([]int64, bool) {
			_, ok := h.(H)
			return dst, ok
		},
	}
}

// readAs is the HdrSpec.Read of variant type H, whose field values read
// appends to dst.
func readAs[H event.Header](read func(h H, dst []int64) []int64) func(event.Header, []int64) ([]int64, bool) {
	return func(h event.Header, dst []int64) ([]int64, bool) {
		v, ok := h.(H)
		if !ok {
			return dst, false
		}
		return read(v, dst), true
	}
}

// isData reports whether an event carries a message through the data
// path. Only data events get headers pushed/popped.
func isData(ev *event.Event) bool {
	return ev.Type == event.ECast || ev.Type == event.ESend
}

// Layers that hold a message past its handler hold it one of two ways.
// The ones that retain by sequence number (mnak, pt2pt, seqno) keep its
// wire image in a msgLog. The ones that hold it in arrival order until
// its turn — total's waiting casts, the flow-control queues of mflow and
// pt2ptw — keep the event itself, header stack and all, and pass it on
// when it is released; each makes its payload its own first
// (event.Event.OwnPayload).

// copyHdrs snapshots a header stack into a fresh slice. Pooled headers
// are cloned so the copy is independently owned (a plain slice copy
// would alias them and free them twice). Used off the steady-state path
// (retransmissions, fragment fan-out); hot paths reuse storage instead.
func copyHdrs(h []event.Header) []event.Header {
	if len(h) == 0 {
		return nil
	}
	return event.AppendClonedHeaders(make([]event.Header, 0, len(h)), h)
}
