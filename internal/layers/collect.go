package layers

import (
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// collectState gathers acknowledgment vectors from all members and
// computes the stability frontier: the per-origin multicast sequence
// number known to be received everywhere. The reliability layer below
// (mnak) reports its contiguous-receive vector up in EAck events on
// every timer sweep; collect multicasts that vector to the group and
// folds the vectors it hears into an element-wise minimum. When the
// frontier advances it emits EStable both down (so mnak can free its
// retransmission buffers) and up (so applications and ordering layers
// can observe stability).
type collectState struct {
	view *event.View

	// acks[m] is the last acknowledgment vector heard from member m;
	// acks[rank] is our own, refreshed by EAck from below.
	acks [][]int64

	// lo is the element-wise minimum of acks, the current frontier;
	// stable is the last frontier announced (lo may fall back below it
	// when a vector regresses, stable never does).
	lo, stable []int64
	// holders[o] counts the members m with acks[m][o] == lo[o].
	holders []int

	// dirty marks that our own vector changed since the last gossip.
	dirty bool
	// sweeps counts timer sweeps; every few sweeps a gossip goes out even
	// when clean, because gossip casts are also what reveals trailing
	// losses to the NAK layer below — without them a lost final message
	// would never be repaired.
	sweeps int64

	// blocked pauses gossip during a view-change flush so the flush can
	// quiesce; the next view's fresh stack resumes it.
	blocked bool
}

// collect header variants.
type (
	// collectPass tags data passing through.
	collectPass struct{}
	// collectGossip carries a member's acknowledgment vector.
	collectGossip struct{ Vector []int64 }
)

func (collectPass) Layer() string   { return Collect }
func (collectPass) WireID() byte    { return idCollect }
func (collectGossip) Layer() string { return Collect }
func (collectGossip) WireID() byte  { return idCollect }

func (collectPass) HdrString() string     { return "collect:Pass" }
func (h collectGossip) HdrString() string { return fmt.Sprintf("collect:Gossip(%v)", h.Vector) }

const (
	collectTagPass byte = iota
	collectTagGossip
)

var collectHdrs = []ir.HdrSpec{
	bareHdr[collectPass]("Pass", collectTagPass, onData, ir.PassedUp),
	// Gossip vectors are not expressible as fixed int fields; gossip is
	// never a bypass path, so Make is never invoked.
	{Variant: "Gossip", Tag: int64(collectTagGossip),
		On: onCast, Fate: ir.Consumed,
		Make: func([]int64) event.Header { panic("collect: gossip headers are not IR-constructible") },
		Read: readAs(func(_ collectGossip, dst []int64) []int64 { return dst })},
}

func init() {
	layer.Register(Collect, func(cfg layer.Config) layer.State {
		n := cfg.View.N()
		s := &collectState{
			view:    cfg.View,
			acks:    make([][]int64, n),
			stable:  make([]int64, n),
			lo:      make([]int64, n),
			holders: make([]int, n),
		}
		for i := range s.acks {
			s.acks[i] = make([]int64, n)
			s.holders[i] = n
		}
		return s
	})
	// The gossip vector is a list, so the codec is written out.
	c := transport.SpecCodec(Collect, idCollect, collectHdrs)
	c.Encode = func(h event.Header, w *transport.Writer) {
		switch h := h.(type) {
		case collectPass:
			w.Byte(collectTagPass)
		case collectGossip:
			w.Byte(collectTagGossip)
			w.Uvarint(uint64(len(h.Vector)))
			for _, v := range h.Vector {
				w.Varint(v)
			}
		default:
			panic(fmt.Sprintf("collect: unknown header %T", h))
		}
	}
	c.Decode = func(r *transport.Reader) (event.Header, error) {
		switch tag := r.Byte(); tag {
		case collectTagPass:
			return collectPass{}, nil
		case collectTagGossip:
			n := r.Uvarint()
			if n > 1<<16 {
				return nil, transport.ErrBadWire("collect vector length %d", n)
			}
			vec := make([]int64, n)
			for i := range vec {
				vec[i] = r.Varint()
			}
			return collectGossip{Vector: vec}, nil
		default:
			return nil, transport.ErrBadWire("collect tag %d", tag)
		}
	}
	transport.RegisterCodec(c)
}

func (s *collectState) Name() string { return Collect }

func (s *collectState) HandleDn(ev *event.Event, snk layer.Sink) {
	if isData(ev) {
		ev.Msg.Push(collectPass{})
	} else if ev.Type == event.EBlock {
		s.blocked = true
	}
	snk.PassDn(ev)
}

func (s *collectState) HandleUp(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast:
		switch h := ev.Msg.Pop().(type) {
		case collectPass:
			snk.PassUp(ev)
		case collectGossip:
			// A vector of the wrong width cannot belong to this view.
			if len(h.Vector) == s.view.N() {
				s.update(ev.Peer, h.Vector, snk)
			}
			event.Free(ev)
		}
	case event.ESend:
		ev.Msg.Pop()
		snk.PassUp(ev)
	case event.EAck:
		// Fresh local acknowledgment vector from the reliability layer.
		if len(ev.Stability) == s.view.N() {
			s.dirty = true
			s.update(s.view.Rank, ev.Stability, snk)
		}
		event.Free(ev)
	case event.ETimer:
		s.sweeps++
		if (s.dirty || s.sweeps%4 == 0) && !s.blocked && s.view.N() > 1 {
			s.dirty = false
			s.gossip(snk)
		}
		snk.PassUp(ev)
	default:
		snk.PassUp(ev)
	}
}

// gossip multicasts our acknowledgment vector.
func (s *collectState) gossip(snk layer.Sink) {
	g := event.Alloc()
	g.Dir, g.Type = event.Dn, event.ECast
	g.Msg.Push(collectGossip{Vector: append([]int64(nil), s.acks[s.view.Rank]...)})
	snk.PassDn(g)
}

// update replaces member r's acknowledgment vector and announces the
// frontier when it advances. lo is kept equal to the element-wise
// minimum over all members' vectors and holders[o] to the number of
// members whose vector sits at lo[o], so an origin's column is looked at
// again only when the last member holding its minimum moves past it —
// which is when the minimum can rise. Everything else costs one pass
// over the new vector.
func (s *collectState) update(r int, vec []int64, snk layer.Sink) {
	old := s.acks[r]
	s.acks[r] = vec
	advanced := false
	for o, v := range vec {
		m := s.lo[o]
		held := old[o] == m
		switch {
		case v < m:
			// Below a minimum the frontier has already seen.
			s.lo[o], s.holders[o] = v, 1
		case v == m:
			if !held {
				s.holders[o]++
			}
		case held:
			if s.holders[o]--; s.holders[o] > 0 {
				continue
			}
			m = v
			for _, row := range s.acks {
				if w := row[o]; w < m {
					m, s.holders[o] = w, 1
				} else if w == m {
					s.holders[o]++
				}
			}
			s.lo[o] = m
			if m > s.stable[o] {
				s.stable[o] = m
				advanced = true
			}
		}
	}
	if !advanced {
		return
	}
	// Each event owns its vector; the two are cut from one allocation.
	n := len(vec)
	vecs := make([]int64, 2*n)
	dn := event.Alloc()
	dn.Dir, dn.Type, dn.Stability = event.Dn, event.EStable, vecs[:n:n]
	copy(dn.Stability, s.stable)
	snk.PassDn(dn)
	up := event.Alloc()
	up.Dir, up.Type, up.Stability = event.Up, event.EStable, vecs[n:]
	copy(up.Stability, s.stable)
	snk.PassUp(up)
}
