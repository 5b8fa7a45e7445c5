package layers

import (
	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// suspectState is a heartbeat failure detector: every timer sweep it
// multicasts a ping, and any member from which no traffic (data or ping)
// has been heard for SuspectTimeout of virtual time is announced upward
// in an ESuspect event. Suspicions are sticky within a view: the
// membership protocol resolves them by installing a new view.
type suspectState struct {
	view    *event.View
	timeout int64

	// now is the latest virtual time observed from timer events.
	now int64
	// lastHeard[o] is the virtual time of the last traffic from o.
	// Before the first timer sweep now is 0, so heard writes nothing;
	// the sweep baselines every entry at its own time (baselined).
	lastHeard []int64
	baselined bool
	// suspected marks members already announced.
	suspected []bool

	// blocked pauses heartbeats during a view-change flush so that the
	// flush's receive-vector agreement can quiesce; detection resumes in
	// the next view's fresh stack.
	blocked bool
}

// suspect header variants.
type (
	// suspectPass tags data passing through.
	suspectPass struct{}
	// suspectPing is a heartbeat multicast.
	suspectPing struct{}
)

func (suspectPass) Layer() string { return Suspect }
func (suspectPass) WireID() byte  { return idSuspect }
func (suspectPing) Layer() string { return Suspect }
func (suspectPing) WireID() byte  { return idSuspect }

func (suspectPass) HdrString() string { return "suspect:Pass" }
func (suspectPing) HdrString() string { return "suspect:Ping" }

const (
	suspectTagPass byte = iota
	suspectTagPing
)

var suspectHdrs = []ir.HdrSpec{
	bareHdr[suspectPass]("Pass", suspectTagPass, onData, ir.PassedUp),
	bareHdr[suspectPing]("Ping", suspectTagPing, onData, ir.Consumed),
}

func init() {
	layer.Register(Suspect, func(cfg layer.Config) layer.State {
		return &suspectState{
			view:      cfg.View,
			timeout:   cfg.SuspectTimeout,
			lastHeard: make([]int64, cfg.View.N()),
			suspected: make([]bool, cfg.View.N()),
		}
	})
	transport.RegisterCodec(transport.SpecCodec(Suspect, idSuspect, suspectHdrs))
}

func (s *suspectState) Name() string { return Suspect }

func (s *suspectState) HandleDn(ev *event.Event, snk layer.Sink) {
	if isData(ev) {
		ev.Msg.Push(suspectPass{})
	} else if ev.Type == event.EBlock {
		s.blocked = true
	}
	snk.PassDn(ev)
}

func (s *suspectState) HandleUp(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast:
		s.heard(ev.Peer)
		switch ev.Msg.Pop().(type) {
		case suspectPing:
			event.Free(ev)
		default:
			snk.PassUp(ev)
		}
	case event.ESend:
		s.heard(ev.Peer)
		switch ev.Msg.Pop().(type) {
		case suspectPing:
			event.Free(ev)
		default:
			snk.PassUp(ev)
		}
	case event.ETimer:
		s.now = ev.Time
		if !s.baselined {
			// First sweep in this view: the clock is absolute virtual
			// time, so "heard" baselines start now, not at zero.
			s.baselined = true
			for i := range s.lastHeard {
				s.lastHeard[i] = s.now
			}
		}
		// Heartbeats are multicast normally, but point-to-point during a
		// view-change flush: the flush agrees on multicast receive
		// vectors, which periodic casts would keep perturbing — while a
		// member that dies mid-flush must still be detected, or the
		// flush waits for its report forever.
		if s.blocked {
			s.pingSends(snk)
		} else {
			s.ping(snk)
		}
		s.checkTimeouts(snk)
		snk.PassUp(ev)
	default:
		snk.PassUp(ev)
	}
}

func (s *suspectState) heard(o int) {
	if s.now > s.lastHeard[o] {
		s.lastHeard[o] = s.now
	}
}

func (s *suspectState) ping(snk layer.Sink) {
	p := event.Alloc()
	p.Dir, p.Type = event.Dn, event.ECast
	p.Msg.Push(suspectPing{})
	snk.PassDn(p)
}

// pingSends heartbeats point-to-point (flush-safe: sends do not touch
// the multicast receive vectors the flush agrees on).
func (s *suspectState) pingSends(snk layer.Sink) {
	for r := 0; r < s.view.N(); r++ {
		if r == s.view.Rank || s.suspected[r] {
			continue
		}
		p := event.Alloc()
		p.Dir, p.Type, p.Peer = event.Dn, event.ESend, r
		p.Msg.Push(suspectPing{})
		snk.PassDn(p)
	}
}

func (s *suspectState) checkTimeouts(snk layer.Sink) {
	var fresh []int
	for o := range s.lastHeard {
		if o == s.view.Rank || s.suspected[o] {
			continue
		}
		if s.now-s.lastHeard[o] > s.timeout {
			s.suspected[o] = true
			fresh = append(fresh, o)
		}
	}
	if len(fresh) == 0 {
		return
	}
	sus := event.Alloc()
	sus.Dir, sus.Type, sus.Ranks = event.Up, event.ESuspect, fresh
	snk.PassUp(sus)
}
