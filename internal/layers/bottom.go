package layers

import (
	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// bottomState is the lowest protocol layer. It gates the stack (events
// are dropped once the stack is disabled for teardown) and delimits the
// header stack: every down-going data message is extended with the
// bottom header before reaching the transport — the paper's Bottom
// optimization theorem shows exactly this behaviour ("a down-going
// send-event does not change the state s_bottom and is passed down to the
// next layer, with its header hdr extended to Full_nohdr(hdr)", §4.1.3).
type bottomState struct {
	view    *event.View
	enabled bool
}

// bottomHdr is the bottom layer's header. Full marks a regular message;
// teardown control traffic would use other tags in a fuller library.
type bottomHdr struct{}

func (bottomHdr) Layer() string     { return Bottom }
func (bottomHdr) WireID() byte      { return idBottom }
func (bottomHdr) HdrString() string { return "bottom:Full_nohdr" }

var bottomHdrs = noHdrSpec[bottomHdr]()

func init() {
	layer.Register(Bottom, func(cfg layer.Config) layer.State {
		return &bottomState{view: cfg.View, enabled: true}
	})
	transport.RegisterCodec(transport.SpecCodec(Bottom, idBottom, bottomHdrs))
}

func (s *bottomState) Name() string { return Bottom }

func (s *bottomState) HandleDn(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.EInit:
		s.enabled = true
		s.view = ev.View
		snk.PassDn(ev)
	case event.ECast, event.ESend:
		if !s.enabled {
			event.Free(ev)
			return
		}
		ev.Msg.Push(bottomHdr{})
		snk.PassDn(ev)
	case event.ELeave, event.EExit:
		s.enabled = false
		snk.PassDn(ev)
	default:
		snk.PassDn(ev)
	}
}

func (s *bottomState) HandleUp(ev *event.Event, snk layer.Sink) {
	if !s.enabled {
		event.Free(ev)
		return
	}
	switch ev.Type {
	case event.ECast, event.ESend:
		ev.Msg.Pop()
		snk.PassUp(ev)
	default:
		snk.PassUp(ev)
	}
}
