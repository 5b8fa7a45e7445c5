package opt

import "sort"

// Multi-CCP dispatch: the engine compiles several specialized bypass
// paths per stack (data cast, pt2pt send, control acks, pt2pt
// retransmissions) and routes each event through a cheap discriminator
// in rank order, falling back to the interpreted stack — the run-time
// CCP switch of Fig. 4 generalized from one common case to a ranked
// family of them. The rank order is profile-guided: at view install the
// group runtime feeds the previous view's per-path hit mix back in
// through WithDispatchRank, so the hottest path is probed first and
// paths the window showed cold can be dropped from the probe order.

// PathID identifies one dispatch destination: a compiled bypass path,
// or the interpreted full stack. The identifiers double as indices into
// the per-path hit/miss counters.
type PathID int

const (
	// PathDnCast is the fully specialized down-going cast (wire plus
	// inline self-delivery).
	PathDnCast PathID = iota
	// PathDnCastPartial is the cast whose wire side is specialized but
	// whose self-delivery runs through the shared stack.
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

// EngineOpt configures engine construction.
type EngineOpt func(*engineConfig)

type engineConfig struct {
	hits     [NumPaths]int64
	misses   [NumPaths]int64
	profiled bool
	// noControl disables the control-path specialization (ack and
	// retransmission recognizers plus their receive bypasses) — the
	// single-CCP baseline the mixed-traffic benchmark compares against.
	noControl bool
}

// WithDispatchRank feeds an observed per-path hit/miss mix into the new
// engine: dispatch probe orders are sorted hottest-first and paths the
// window showed cold may be dropped from the probe order (never from
// correctness — the interpreted stack remains the universal fallback).
// core.Member passes the previous view's engine counters here at view
// install, making the dispatch profile-guided.
func WithDispatchRank(hits, misses [NumPaths]int64) EngineOpt {
	return func(c *engineConfig) {
		c.hits, c.misses = hits, misses
		c.profiled = true
	}
}

// WithoutControlPaths builds the engine with only the data-path bypasses
// of the single-CCP configuration. Benchmarks use it as the baseline.
func WithoutControlPaths() EngineOpt {
	return func(c *engineConfig) { c.noControl = true }
}

// coldDropProbes is how many profiled misses (with zero hits) it takes
// for an optional path to be dropped from the next view's probe order.
const coldDropProbes = 64

// applyDispatchRank fixes the probe orders from the construction-time
// defaults and, when a profile was supplied, reorders them
// hottest-first and drops provably cold optional paths. Everything here
// is deterministic in the profile values, which are themselves
// deterministic per member — Run and RunConcurrent therefore rerank
// identically.
func (e *Engine) applyDispatchRank(ec *engineConfig) {
	e.castOrder = e.castOrder[:0]
	if e.dnCast != nil {
		e.castOrder = append(e.castOrder, e.dnCast)
	}
	if e.dnCastPartial != nil {
		e.castOrder = append(e.castOrder, e.dnCastPartial)
	}
	if !ec.profiled {
		return
	}
	sort.SliceStable(e.castOrder, func(i, j int) bool {
		return ec.hits[e.castOrder[i].pid] > ec.hits[e.castOrder[j].pid]
	})
	// Dominance constraint: the partial path's predicate is implied by
	// the full path's (it is the full CCP minus the ordering conjuncts),
	// so probed first it would catch everything and starve the strictly
	// better full path forever. Whatever the profile says, the full cast
	// bypass stays ahead of its own fallback.
	for i := 1; i < len(e.castOrder); i++ {
		if e.castOrder[i-1].pid == PathDnCastPartial && e.castOrder[i].pid == PathDnCast {
			e.castOrder[i-1], e.castOrder[i] = e.castOrder[i], e.castOrder[i-1]
		}
	}
	if len(e.castOrder) == 2 &&
		ec.hits[PathDnCastPartial] == 0 && ec.misses[PathDnCastPartial] >= coldDropProbes {
		// The partial path never fired across a whole view's window while
		// being probed often: drop it for this view. Events it would have
		// caught take the interpreted stack instead.
		keep := e.castOrder[:0]
		for _, cp := range e.castOrder {
			if cp.pid != PathDnCastPartial {
				keep = append(keep, cp)
			}
		}
		e.castOrder = keep
	}
	sort.SliceStable(e.ctrl, func(i, j int) bool {
		return ec.hits[e.ctrl[i].pid] > ec.hits[e.ctrl[j].pid]
	})
}
