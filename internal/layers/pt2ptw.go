package layers

import (
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// pt2ptwState implements point-to-point window flow control: at most
// WindowSize messages may be outstanding to any peer; further sends are
// queued until the receiver's window acknowledgment opens the window
// again. Receivers acknowledge every WindowSize/2 deliveries.
type pt2ptwState struct {
	view   *event.View
	window int64
	peers  []pt2ptwPeer
}

type pt2ptwPeer struct {
	// sent and acked count messages to this peer; sent-acked is the
	// in-flight total bounded by the window.
	sent, acked int64
	// recvd and ackSent count messages from this peer and the count we
	// last acknowledged.
	recvd, ackSent int64
	// queue holds sends blocked on a full window: the events themselves,
	// each owning its payload (event.Event.OwnPayload).
	queue []*event.Event
}

// pt2ptw header variants.
type (
	// p2pwData tags an in-window point-to-point message.
	p2pwData struct{}
	// p2pwAck opens the sender's window: Count acknowledges receipt of
	// that many messages in total.
	p2pwAck struct{ Count int64 }
	// p2pwPass tags multicast traffic passing through.
	p2pwPass struct{}
)

func (p2pwData) Layer() string { return Pt2ptw }
func (p2pwData) WireID() byte  { return idPt2ptw }
func (p2pwAck) Layer() string  { return Pt2ptw }
func (p2pwAck) WireID() byte   { return idPt2ptw }
func (p2pwPass) Layer() string { return Pt2ptw }
func (p2pwPass) WireID() byte  { return idPt2ptw }

func (p2pwData) HdrString() string  { return "pt2ptw:Data" }
func (h p2pwAck) HdrString() string { return fmt.Sprintf("pt2ptw:Ack(%d)", h.Count) }
func (p2pwPass) HdrString() string  { return "pt2ptw:Pass" }

const (
	p2pwTagData byte = iota
	p2pwTagAck
	p2pwTagPass
)

var pt2ptwHdrs = []ir.HdrSpec{
	bareHdr[p2pwData]("Data", p2pwTagData, onSend, ir.PassedUp),
	{Variant: "Ack", Tag: int64(p2pwTagAck), Fields: []string{"count"},
		On: onSend, Fate: ir.Consumed,
		Make: func(f []int64) event.Header { return p2pwAck{Count: f[0]} },
		Read: readAs(func(a p2pwAck, dst []int64) []int64 { return append(dst, a.Count) })},
	bareHdr[p2pwPass]("Pass", p2pwTagPass, onCast, ir.PassedUp),
}

func init() {
	layer.Register(Pt2ptw, func(cfg layer.Config) layer.State {
		return &pt2ptwState{
			view:   cfg.View,
			window: cfg.WindowSize,
			peers:  make([]pt2ptwPeer, cfg.View.N()),
		}
	})
	transport.RegisterCodec(transport.SpecCodec(Pt2ptw, idPt2ptw, pt2ptwHdrs))
}

func (s *pt2ptwState) Name() string { return Pt2ptw }

func (s *pt2ptwState) HandleDn(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ESend:
		p := &s.peers[ev.Peer]
		if p.sent-p.acked >= s.window {
			ev.OwnPayload()
			p.queue = append(p.queue, ev)
			return
		}
		p.sent++
		ev.Msg.Push(p2pwData{})
		snk.PassDn(ev)
	case event.ECast:
		ev.Msg.Push(p2pwPass{})
		snk.PassDn(ev)
	default:
		snk.PassDn(ev)
	}
}

func (s *pt2ptwState) HandleUp(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast:
		ev.Msg.Pop()
		snk.PassUp(ev)
	case event.ESend:
		from := ev.Peer
		switch h := ev.Msg.Pop().(type) {
		case p2pwData:
			p := &s.peers[from]
			p.recvd++
			if p.recvd-p.ackSent >= s.window/2 {
				p.ackSent = p.recvd
				ack := event.Alloc()
				ack.Dir, ack.Type, ack.Peer = event.Dn, event.ESend, from
				ack.Msg.Push(p2pwAck{Count: p.recvd})
				snk.PassDn(ack)
			}
			snk.PassUp(ev)
		case p2pwAck:
			s.openWindow(from, h.Count, snk)
			event.Free(ev)
		}
	default:
		snk.PassUp(ev)
	}
}

// openWindow records the acknowledgment and releases queued sends that
// now fit in the window.
func (s *pt2ptwState) openWindow(peer int, count int64, snk layer.Sink) {
	p := &s.peers[peer]
	if count > p.acked {
		p.acked = count
	}
	for len(p.queue) > 0 && p.sent-p.acked < s.window {
		ev := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		p.sent++
		ev.Msg.Push(p2pwData{})
		snk.PassDn(ev)
	}
}
