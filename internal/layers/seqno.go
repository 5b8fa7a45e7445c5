package layers

import (
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// seqnoState sequences multicasts per origin without retransmission: a
// lighter-weight alternative to mnak for networks that reorder and
// duplicate but do not lose (Ensemble keeps several implementations of
// the same task for different environments, §1 — this is the ordering
// task's cheap variant). Out-of-order casts are buffered until the gap
// fills; over a lossy network a lost message stalls its origin's stream
// permanently, which is why the configuration checker does not accept
// this layer as a reliability substrate.
type seqnoState struct {
	view *event.View

	mySeq    int64
	recvNext []int64
	// ahead[o] holds the casts from origin o that arrived past
	// recvNext[o], as images of what the layers above will see.
	ahead []msgLog
	// arena stores the records of every ahead log.
	arena logArena

	// wbuf encodes the images of events that did not come off the wire.
	wbuf transport.Writer
}

// seqno header variants.
type (
	seqnoData struct{ Seqno int64 }
	seqnoPass struct{}
)

var seqnoDataPool event.HdrPool[seqnoData]

func newSeqnoData(seq int64) *seqnoData {
	h := seqnoDataPool.Get()
	h.Seqno = seq
	return h
}

func (*seqnoData) Layer() string { return Seqno }
func (*seqnoData) WireID() byte  { return idSeqno }
func (seqnoPass) Layer() string  { return Seqno }
func (seqnoPass) WireID() byte   { return idSeqno }

func (h *seqnoData) HdrString() string { return fmt.Sprintf("seqno:Data(%d)", h.Seqno) }
func (seqnoPass) HdrString() string    { return "seqno:Pass" }

func (h *seqnoData) CloneHdr() event.Header { return newSeqnoData(h.Seqno) }
func (h *seqnoData) FreeHdr()               { seqnoDataPool.Put(h) }

const (
	seqnoTagData byte = iota
	seqnoTagPass
)

// seqnoHdrs declares the variants as the other layers do, though seqno
// has no IR: they build its codec and contract.
var seqnoHdrs = []ir.HdrSpec{
	{Variant: "Data", Tag: int64(seqnoTagData), Fields: []string{"seqno"},
		On: onCast, Fate: ir.PassedUp,
		Make: func(f []int64) event.Header { return newSeqnoData(f[0]) },
		Read: readAs(func(d *seqnoData, dst []int64) []int64 { return append(dst, d.Seqno) })},
	bareHdr[seqnoPass]("Pass", seqnoTagPass, onSend, ir.PassedUp),
}

func init() {
	layer.Register(Seqno, func(cfg layer.Config) layer.State {
		n := cfg.View.N()
		return &seqnoState{
			view:     cfg.View,
			recvNext: make([]int64, n),
			ahead:    make([]msgLog, n),
		}
	})
	transport.RegisterCodec(transport.SpecCodec(Seqno, idSeqno, seqnoHdrs))
}

func (s *seqnoState) Name() string { return Seqno }

// Retained reports the casts the logs hold and the bytes they take.
func (s *seqnoState) Retained() (msgs, bytes int64) { return s.arena.msgs, s.arena.bytes }

func (s *seqnoState) HandleDn(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast:
		ev.Msg.Push(newSeqnoData(s.mySeq))
		s.mySeq++
		snk.PassDn(ev)
	case event.ESend:
		ev.Msg.Push(seqnoPass{})
		snk.PassDn(ev)
	default:
		snk.PassDn(ev)
	}
}

func (s *seqnoState) HandleUp(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast:
		h := ev.Msg.Pop().(*seqnoData)
		seq := h.Seqno
		h.FreeHdr()
		origin := ev.Peer
		next := s.recvNext[origin]
		switch {
		case seq == next:
			s.recvNext[origin] = next + 1
			snk.PassUp(ev)
			s.drain(origin, snk)
		case seq > next:
			s.ahead[origin].put(&s.arena, seq, imageOf(ev, &s.wbuf))
			event.Free(ev)
		default:
			event.Free(ev) // duplicate
		}
	case event.ESend:
		ev.Msg.Pop()
		snk.PassUp(ev)
	default:
		snk.PassUp(ev)
	}
}

func (s *seqnoState) drain(origin int, snk layer.Sink) {
	log := &s.ahead[origin]
	for {
		img, ok := log.get(&s.arena, s.recvNext[origin])
		if !ok {
			break
		}
		s.recvNext[origin]++
		out := event.Alloc()
		out.Dir, out.Type, out.Peer = event.Up, event.ECast, origin
		fromImage(img, out)
		snk.PassUp(out)
	}
	log.trimBelow(&s.arena, s.recvNext[origin])
}
