package layers

import (
	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// partialApplState is the application interface layer of the large
// stacks. Ensemble's partial_appl pre-applies the application's handler
// closures so that per-event dispatch is a direct call; our analogue
// keeps the per-member traffic accounting the application interface
// exposes, absorbs housekeeping events, and delimits the header stack
// from above.
type partialApplState struct {
	view *event.View

	// sent and delivered count application messages through this
	// interface, per peer, matching the accounting Ensemble's
	// application interface maintains.
	castsSent  int64
	sendsSent  []int64
	castsDeliv []int64
	sendsDeliv []int64
	stableVec  []int64
}

type paplHdr struct{}

func (paplHdr) Layer() string     { return PartialAppl }
func (paplHdr) WireID() byte      { return idPartialAppl }
func (paplHdr) HdrString() string { return "partial_appl:NoHdr" }

var paplHdrs = noHdrSpec[paplHdr]()

func init() {
	layer.Register(PartialAppl, func(cfg layer.Config) layer.State {
		n := cfg.View.N()
		return &partialApplState{
			view:       cfg.View,
			sendsSent:  make([]int64, n),
			castsDeliv: make([]int64, n),
			sendsDeliv: make([]int64, n),
		}
	})
	transport.RegisterCodec(transport.SpecCodec(PartialAppl, idPartialAppl, paplHdrs))
}

func (s *partialApplState) Name() string { return PartialAppl }

func (s *partialApplState) HandleDn(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast:
		s.castsSent++
		ev.Msg.Push(paplHdr{})
		snk.PassDn(ev)
	case event.ESend:
		s.sendsSent[ev.Peer]++
		ev.Msg.Push(paplHdr{})
		snk.PassDn(ev)
	default:
		snk.PassDn(ev)
	}
}

func (s *partialApplState) HandleUp(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast:
		ev.Msg.Pop()
		s.castsDeliv[ev.Peer]++
		snk.PassUp(ev)
	case event.ESend:
		ev.Msg.Pop()
		s.sendsDeliv[ev.Peer]++
		snk.PassUp(ev)
	case event.EStable:
		s.stableVec = ev.Stability
		snk.PassUp(ev)
	case event.ETimer, event.EAck:
		event.Free(ev)
	default:
		snk.PassUp(ev)
	}
}
