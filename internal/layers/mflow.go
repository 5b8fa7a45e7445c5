package layers

import (
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// mflowState implements credit-based multicast flow control. The sender
// may have at most CreditBytes of multicast payload outstanding to any
// receiver; each receiver returns credit point-to-point after consuming
// half a quantum. Casts beyond the credit limit are queued in order.
type mflowState struct {
	view   *event.View
	credit int64

	// sentBytes counts multicast payload bytes this member has cast.
	sentBytes int64
	// ackedBytes[p] is the byte count receiver p has credited back.
	ackedBytes []int64
	// recvBytes[o] / creditSent[o] track consumption from origin o and
	// the byte count we last credited to it.
	recvBytes  []int64
	creditSent []int64
	// queue holds casts blocked on exhausted credit: the events
	// themselves, each owning its payload (event.Event.OwnPayload).
	queue []*event.Event
	// blockedSweeps counts consecutive timer sweeps spent with casts
	// queued, pacing the zero-window probe.
	blockedSweeps int
}

// mflowProbeSweeps is the zero-window probe interval in timer sweeps:
// after this many consecutive sweeps with casts stuck in the queue, one
// is forced out regardless of credit. Credit only returns when receivers
// consume; if every in-flight cast was lost — or arrived undecodable,
// which a delta-coded transport can make of a whole window after one
// drop — consumption stops, credit never returns, and sender and
// receivers deadlock waiting on each other. A bounded overcommit of one
// cast per interval keeps the multicast path live so the reliability
// layers underneath regain the evidence they need to repair the gap.
const mflowProbeSweeps = 4

// mflow header variants.
type (
	// mflowData tags a credit-consuming multicast.
	mflowData struct{}
	// mflowCredit returns credit to a sender: Bytes is the cumulative
	// byte count received from it.
	mflowCredit struct{ Bytes int64 }
	// mflowPass tags point-to-point traffic passing through.
	mflowPass struct{}
)

func (mflowData) Layer() string   { return Mflow }
func (mflowData) WireID() byte    { return idMflow }
func (mflowCredit) Layer() string { return Mflow }
func (mflowCredit) WireID() byte  { return idMflow }
func (mflowPass) Layer() string   { return Mflow }
func (mflowPass) WireID() byte    { return idMflow }

func (mflowData) HdrString() string     { return "mflow:Data" }
func (h mflowCredit) HdrString() string { return fmt.Sprintf("mflow:Credit(%d)", h.Bytes) }
func (mflowPass) HdrString() string     { return "mflow:Pass" }

const (
	mflowTagData byte = iota
	mflowTagCredit
	mflowTagPass
)

var mflowHdrs = []ir.HdrSpec{
	bareHdr[mflowData]("Data", mflowTagData, onCast, ir.PassedUp),
	{Variant: "Credit", Tag: int64(mflowTagCredit), Fields: []string{"bytes"},
		On: onSend, Fate: ir.Consumed,
		Make: func(f []int64) event.Header { return mflowCredit{Bytes: f[0]} },
		Read: readAs(func(c mflowCredit, dst []int64) []int64 { return append(dst, c.Bytes) })},
	bareHdr[mflowPass]("Pass", mflowTagPass, onSend, ir.PassedUp),
}

func init() {
	layer.Register(Mflow, func(cfg layer.Config) layer.State {
		n := cfg.View.N()
		return &mflowState{
			view:       cfg.View,
			credit:     cfg.CreditBytes,
			ackedBytes: make([]int64, n),
			recvBytes:  make([]int64, n),
			creditSent: make([]int64, n),
		}
	})
	transport.RegisterCodec(transport.SpecCodec(Mflow, idMflow, mflowHdrs))
}

func (s *mflowState) Name() string { return Mflow }

// minAcked returns the smallest credit returned by any other receiver,
// or sentBytes when there are no other members (nothing outstanding).
// The worst-case in-flight byte count is sentBytes - minAcked.
func (s *mflowState) minAcked() int64 {
	m, have := int64(0), false
	for p, acked := range s.ackedBytes {
		if p == s.view.Rank {
			continue
		}
		if !have || acked < m {
			m, have = acked, true
		}
	}
	if !have {
		return s.sentBytes
	}
	return m
}

// inFlight returns the worst-case outstanding bytes across receivers.
func (s *mflowState) inFlight() int64 { return s.sentBytes - s.minAcked() }

func (s *mflowState) HandleDn(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast:
		need := int64(len(ev.Msg.Payload))
		// With no other members there is no receiver to exhaust: credit
		// never applies (and nothing could ever return it).
		if s.view.N() > 1 && (len(s.queue) > 0 || s.inFlight()+need > s.credit) {
			ev.OwnPayload()
			s.queue = append(s.queue, ev)
			return
		}
		s.sentBytes += need
		ev.Msg.Push(mflowData{})
		snk.PassDn(ev)
	case event.ESend:
		ev.Msg.Push(mflowPass{})
		snk.PassDn(ev)
	case event.EBlock:
		// A flush agrees on the casts mnak below has numbered, and the
		// stack is dropped at the next view: a cast still queued here
		// would be lost. Release them all, past the credit limit, before
		// mnak reports its vector.
		for len(s.queue) > 0 {
			s.release(snk)
		}
		snk.PassDn(ev)
	default:
		snk.PassDn(ev)
	}
}

func (s *mflowState) HandleUp(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast:
		ev.Msg.Pop()
		from := ev.Peer
		s.recvBytes[from] += int64(len(ev.Msg.Payload))
		if s.recvBytes[from]-s.creditSent[from] >= s.credit/2 {
			s.creditSent[from] = s.recvBytes[from]
			cr := event.Alloc()
			cr.Dir, cr.Type, cr.Peer = event.Dn, event.ESend, from
			cr.Msg.Push(mflowCredit{Bytes: s.recvBytes[from]})
			snk.PassDn(cr)
		}
		snk.PassUp(ev)
	case event.ESend:
		switch h := ev.Msg.Pop().(type) {
		case mflowCredit:
			if h.Bytes > s.ackedBytes[ev.Peer] {
				s.ackedBytes[ev.Peer] = h.Bytes
			}
			s.flush(snk)
			event.Free(ev)
		case mflowPass:
			snk.PassUp(ev)
		}
	case event.ETimer:
		if len(s.queue) > 0 {
			s.blockedSweeps++
			if s.blockedSweeps >= mflowProbeSweeps {
				// The zero-window probe (see mflowProbeSweeps): the head
				// queued cast goes out past the exhausted credit limit. The
				// overcommitted bytes still count as sent, so regular
				// releases stay blocked until real credit returns.
				s.blockedSweeps = 0
				s.release(snk)
			}
		} else {
			s.blockedSweeps = 0
		}
		snk.PassUp(ev)
	default:
		snk.PassUp(ev)
	}
}

// flush releases queued casts that now fit under the credit limit.
func (s *mflowState) flush(snk layer.Sink) {
	for len(s.queue) > 0 && s.inFlight()+int64(len(s.queue[0].Msg.Payload)) <= s.credit {
		s.release(snk)
	}
}

// release passes the head queued cast down, counting its bytes as sent.
func (s *mflowState) release(snk layer.Sink) {
	ev := s.queue[0]
	s.queue[0] = nil
	s.queue = s.queue[1:]
	s.sentBytes += int64(len(ev.Msg.Payload))
	ev.Msg.Push(mflowData{})
	snk.PassDn(ev)
}
