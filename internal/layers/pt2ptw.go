package layers

import (
	"fmt"

	"ensemble/internal/event"
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

func init() {
	layer.Register(Pt2ptw, func(cfg layer.Config) layer.State {
		return &pt2ptwState{
			view:   cfg.View,
			window: cfg.WindowSize,
			peers:  make([]pt2ptwPeer, cfg.View.N()),
		}
	})
	transport.RegisterCodec(transport.HeaderCodec{
		Layer: Pt2ptw,
		ID:    idPt2ptw,
		Encode: func(h event.Header, w *transport.Writer) {
			switch h := h.(type) {
			case p2pwData:
				w.Byte(p2pwTagData)
			case p2pwAck:
				w.Byte(p2pwTagAck)
				w.Varint(h.Count)
			case p2pwPass:
				w.Byte(p2pwTagPass)
			default:
				panic(fmt.Sprintf("pt2ptw: unknown header %T", h))
			}
		},
		Decode: func(r *transport.Reader) (event.Header, error) {
			switch tag := r.Byte(); tag {
			case p2pwTagData:
				return p2pwData{}, nil
			case p2pwTagAck:
				return p2pwAck{Count: r.Varint()}, nil
			case p2pwTagPass:
				return p2pwPass{}, nil
			default:
				return nil, transport.ErrBadWire("pt2ptw tag %d", tag)
			}
		},
		Ends: func(h event.Header) bool { _, ack := h.(p2pwAck); return ack },
	})
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
		h := ev.Msg.Pop()
		if _, pass := h.(p2pwPass); !pass {
			dropBad(h, ev)
			return
		}
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
		case p2pwPass:
			snk.PassUp(ev)
		default:
			panic(fmt.Sprintf("pt2ptw: unexpected up header %T", h))
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
