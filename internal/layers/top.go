package layers

import (
	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// topState is the uppermost protocol layer of the small stacks (Fig. 4).
// It terminates the event flow: deliveries, views, suspicions, and
// stability announcements continue to the application glue; protocol
// housekeeping events that no layer consumed (timers, acks) are absorbed
// here so the application never sees them.
type topState struct {
	view *event.View
}

type topHdr struct{}

func (topHdr) Layer() string     { return Top }
func (topHdr) WireID() byte      { return idTop }
func (topHdr) HdrString() string { return "top:NoHdr" }

var topHdrs = noHdrSpec[topHdr]()

func init() {
	layer.Register(Top, func(cfg layer.Config) layer.State {
		return &topState{view: cfg.View}
	})
	transport.RegisterCodec(transport.SpecCodec(Top, idTop, topHdrs))
}

func (s *topState) Name() string { return Top }

func (s *topState) HandleDn(ev *event.Event, snk layer.Sink) {
	if isData(ev) {
		ev.Msg.Push(topHdr{})
	}
	snk.PassDn(ev)
}

func (s *topState) HandleUp(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast, event.ESend:
		ev.Msg.Pop()
		snk.PassUp(ev)
	case event.ETimer, event.EAck:
		// Housekeeping that reached the top without a consumer.
		event.Free(ev)
	default:
		snk.PassUp(ev)
	}
}
