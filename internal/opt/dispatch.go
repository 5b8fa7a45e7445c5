package opt

// Multi-CCP dispatch: the engine compiles one specialized bypass path
// per common case of the stack (data cast, pt2pt send, each control
// message a layer emits mid-stack, each wire signature that can arrive)
// and routes each event through that case's compiled discriminator,
// falling back to the interpreted stack — the run-time CCP switch of
// Fig. 4 generalized from one common case to a family of them. Every
// event has exactly one path to probe: down events by kind, arrivals by
// the signature identifier in the compressed image, stack-exit control
// messages by kind and header shape.

// PathID identifies one dispatch destination: a compiled bypass path,
// or the interpreted full stack. The identifiers double as indices into
// the per-path hit/miss counters.
type PathID int

const (
	// PathDnCast is the fully specialized down-going cast (wire plus
	// inline self-delivery).
	PathDnCast PathID = iota
	// PathDnCastPartial is a compiled cast whose self-delivery copy was
	// handed to the shared stack above the bouncing layer (the theorem's
	// bounce segment failed) — the down counterpart of PathUpHandoff.
	// It is a routing outcome of PathDnCast, never probed on its own.
	PathDnCastPartial
	// PathDnSend is the specialized point-to-point data send.
	PathDnSend
	// PathDnCtrlAck recognizes pt2pt acknowledgments at the stack's net
	// exit and emits them compressed.
	PathDnCtrlAck
	// PathDnCtrlRetrans recognizes pt2pt retransmissions at the stack's
	// net exit and emits them compressed.
	PathDnCtrlRetrans
	// PathUpCast and PathUpSend are the receive-side data bypasses.
	PathUpCast
	PathUpSend
	// PathUpAck consumes a compressed acknowledgment without touching
	// the layers above pt2pt.
	PathUpAck
	// PathUpRetrans applies a compressed gap-filling retransmission.
	PathUpRetrans
	// PathFullStack is the interpreted fallback (a routing "hit" on this
	// path is a miss of every specialized one).
	PathFullStack
	// PathDnCtrlOrder recognizes the sequencer's order announcements at
	// the stack's net exit and emits them compressed.
	PathDnCtrlOrder
	// PathUpHandoff is a compressed arrival whose compiled code ran for
	// the bottom-most layers only and handed the event to the stack at
	// the layer whose common case failed — or, for an order
	// announcement, the layer that has none (Engine.Packet).
	PathUpHandoff

	// NumPaths sizes the per-path counter arrays.
	NumPaths
)

var pathNames = [NumPaths]string{
	PathDnCast:        "dn_cast",
	PathDnCastPartial: "dn_cast_partial",
	PathDnSend:        "dn_send",
	PathDnCtrlAck:     "dn_ctrl_ack",
	PathDnCtrlRetrans: "dn_ctrl_retrans",
	PathUpCast:        "up_cast",
	PathUpSend:        "up_send",
	PathUpAck:         "up_ack",
	PathUpRetrans:     "up_retrans",
	PathFullStack:     "full_stack",
	PathDnCtrlOrder:   "dn_ctrl_order",
	PathUpHandoff:     "up_handoff",
}

// String returns a stable metric-friendly name.
func (p PathID) String() string {
	if p < 0 || p >= NumPaths {
		return "unknown"
	}
	return pathNames[p]
}
