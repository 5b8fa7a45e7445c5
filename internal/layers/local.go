package layers

import (
	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// localState delivers this member's own multicasts back to itself: the
// network fans a cast out to the *other* members, so somebody must loop
// the sender's copy around. The reflected copy carries a snapshot of the
// header stack pushed by the layers above local, so those layers pop
// exactly what they pushed — the copy never visits the layers below.
type localState struct {
	view *event.View
}

type localHdr struct{}

func (localHdr) Layer() string     { return Local }
func (localHdr) WireID() byte      { return idLocal }
func (localHdr) HdrString() string { return "local:NoHdr" }

var localHdrs = noHdrSpec[localHdr]()

func init() {
	layer.Register(Local, func(cfg layer.Config) layer.State {
		return &localState{view: cfg.View}
	})
	transport.RegisterCodec(transport.SpecCodec(Local, idLocal, localHdrs))
}

func (s *localState) Name() string { return Local }

func (s *localState) HandleDn(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast:
		// Reflect a self-delivery before passing the cast down: sending
		// first and doing the non-critical copy afterwards is the
		// paper's "delay non-critical processing" guideline inverted —
		// here the copy must happen first because the original's header
		// stack grows as it descends.
		copyEv := event.Alloc()
		copyEv.Dir, copyEv.Type, copyEv.Peer = event.Up, event.ECast, s.view.Rank
		copyEv.ApplMsg, copyEv.Borrowed = ev.ApplMsg, ev.Borrowed
		copyEv.Msg.Payload = ev.Msg.Payload
		// Deep-clone: pooled headers must not be shared between the two
		// events, or both will free them.
		copyEv.Msg.Headers = event.AppendClonedHeaders(copyEv.Msg.Headers[:0], ev.Msg.Headers)
		ev.Msg.Push(localHdr{})
		snk.PassDn(ev)
		snk.PassUp(copyEv)
	case event.ESend:
		ev.Msg.Push(localHdr{})
		snk.PassDn(ev)
	default:
		snk.PassDn(ev)
	}
}

func (s *localState) HandleUp(ev *event.Event, snk layer.Sink) {
	if isData(ev) {
		ev.Msg.Pop()
	}
	snk.PassUp(ev)
}
