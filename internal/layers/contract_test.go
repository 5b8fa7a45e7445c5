package layers

import (
	"fmt"
	"slices"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/layer"
	"ensemble/internal/opt"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// The wire contracts (ir.HdrSpec.On and Fate) are declared, not derived:
// these tests hold the declarations to what the handlers do and the
// transport to what the declarations admit.

// layerHdrs maps each component with a wire contract to its variants.
var layerHdrs = map[string][]ir.HdrSpec{
	Bottom: bottomHdrs, Mnak: mnakHdrs, Pt2pt: pt2ptHdrs, Mflow: mflowHdrs, Pt2ptw: pt2ptwHdrs,
	Frag: fragHdrs, Collect: collectHdrs, Local: localHdrs, Top: topHdrs, PartialAppl: paplHdrs,
	Total: totalHdrs, Suspect: suspectHdrs, Membership: membHdrs, Seqno: seqnoHdrs,
}

// specOf returns the variant spec of h.
func specOf(h event.Header) *ir.HdrSpec {
	hdrs := layerHdrs[h.Layer()]
	for i := range hdrs {
		if _, ok := hdrs[i].Read(h, nil); ok {
			return &hdrs[i]
		}
	}
	return nil
}

// The shapes are images from rank 0 to rank 1 of a shapeN-member view.
const shapeN = 4

// shapeSamples lists one header of every variant of every layer, with
// field values a fresh member of the view expects next: sequence
// numbers 0 from origin 0, a view change that keeps the receiver, a
// flush round from its tree parent.
func shapeSamples() map[string][]event.Header {
	zeros := make([]int64, shapeN)
	return map[string][]event.Header{
		Bottom:      {bottomHdr{}},
		Mnak:        {&mnakData{}, mnakPass{}, mnakNak{}, mnakRetrans{}, mnakTail{}},
		Pt2pt:       {&p2pData{}, p2pRetrans{}, p2pAck{}, p2pPass{}},
		Mflow:       {mflowData{}, mflowCredit{}, mflowPass{}},
		Pt2ptw:      {p2pwData{}, p2pwAck{}, p2pwPass{}},
		Frag:        {fragSolo{}, fragFrag{Idx: 0, Of: 1}},
		Collect:     {collectPass{}, collectGossip{Vector: zeros}},
		Local:       {localHdr{}},
		Suspect:     {suspectPass{}, suspectPing{}},
		Total:       {&totalData{}, totalOrder{}, totalPass{}},
		Top:         {topHdr{}},
		PartialAppl: {paplHdr{}},
		Seqno:       {&seqnoData{}, seqnoPass{}},
		Membership: {
			membPass{},
			membView{ViewSeq: 2, Members: []event.Addr{1, 2, 3}},
			membLeave{Rank: 2},
			membFlushAgg{ViewSeq: 2, Round: 1, Count: 1, Vector: zeros, Max: zeros},
			membFlushTree{ViewSeq: 2, Round: 1, Frontier: zeros, Excluded: []int32{3}},
		},
	}
}

// admits is the composed contracts of a stack of depth layers, stated
// on their own: whether an image of the given kind whose headers are
// hdrs (bottom first) is admitted, and whether it then reaches the top
// of the stack, and as what kind.
func admits(depth int, kind event.Type, hdrs []event.Header) (ok, top bool, as event.Type) {
	if len(hdrs) > depth {
		return false, false, kind
	}
	for i, h := range hdrs {
		s := specOf(h)
		if !slices.Contains(s.On, kind) {
			return false, false, kind
		}
		switch s.Fate {
		case ir.Consumed:
			return i == len(hdrs)-1, false, kind
		case ir.PassedUpAsCast:
			kind = event.ECast
		}
	}
	return len(hdrs) == depth, true, kind
}

// shapeImage marshals an application message of the given kind from
// rank 0 under hdrs, bottom first.
func shapeImage(t *testing.T, kind event.Type, hdrs []event.Header) []byte {
	t.Helper()
	ev := event.Alloc()
	ev.Type, ev.ApplMsg, ev.Msg.Payload = kind, true, []byte("shape")
	for i := len(hdrs) - 1; i >= 0; i-- {
		ev.Msg.Push(event.CloneHeader(hdrs[i]))
	}
	var w transport.Writer
	if err := transport.Marshal(ev, 0, &w); err != nil {
		t.Fatal(err)
	}
	event.Free(ev)
	return w.Bytes()
}

// shapeMember is a plain or optimized member at rank 1, counting what
// it delivers; viewed records that an arrival changed its view.
type shapeMember struct {
	*opt.Engine
	delivered []bool // cast flag of each delivery
	viewed    bool
}

func newShapeMember(t *testing.T, names []string, optimized bool) *shapeMember {
	t.Helper()
	build := opt.NewStackEngine
	if optimized {
		build = opt.NewEngine
	}
	cfg := layer.DefaultConfig(testView(shapeN, 1))
	e, err := build(names, cfg, stack.Func)
	if err != nil {
		t.Fatal(err)
	}
	m := &shapeMember{Engine: e}
	e.Deliver = func(origin int, _ []byte, cast bool) { m.delivered = append(m.delivered, cast) }
	e.Control = func(ev *event.Event) { m.viewed = m.viewed || ev.Type == event.EView || ev.Type == event.EExit }
	e.Init(cfg.View)
	return m
}

// TestEveryHeaderShape enumerates every (event kind, variant stack)
// shape up to the stack's depth + 1 over the four stacks: each layer's
// position holds each of its variants (the extra position, the top
// layer's), with field values in range. UnmarshalFor must admit exactly
// the shapes the composed contracts admit. Every admitted shape goes to
// a fresh plain and a fresh optimized member, which must deliver it
// exactly when the contracts pass it to the top — so a variant declared
// passed up that its handler consumes, or the reverse, fails here, and
// one declared on a kind its handler does not take panics here — and to
// a long-lived pair, rebuilt when an image changes its view, that sees
// every shape in turn. Nothing may panic.
func TestEveryHeaderShape(t *testing.T) {
	samples := shapeSamples()
	for name, hdrs := range layerHdrs {
		for i := range hdrs {
			n := 0
			for _, h := range samples[name] {
				if specOf(h) == &hdrs[i] {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("%s.%s has %d samples, want 1", name, hdrs[i].Variant, n)
			}
		}
	}
	stacks := map[string][]string{"Stack10": Stack10(), "StackVsync": StackVsync(), "StackFifo": StackFifo(), "Stack4": Stack4()}
	for sname, names := range stacks {
		t.Run(sname, func(t *testing.T) {
			ids := transport.StackIDs(names)
			cast, send := stackImages(t, names)
			for _, img := range [][]byte{cast, send} {
				ev, err := transport.UnmarshalFor(img, ids)
				if err != nil {
					t.Fatalf("the stack's own image is refused: %v", err)
				}
				event.Free(ev)
			}
			long := [2]*shapeMember{newShapeMember(t, names, false), newShapeMember(t, names, true)}
			shapes, admitted := 0, 0
			var walk func(kind event.Type, hdrs []event.Header)
			walk = func(kind event.Type, hdrs []event.Header) {
				if len(hdrs) > 0 {
					shapes++
					img := shapeImage(t, kind, hdrs)
					ok, top, as := admits(len(names), kind, hdrs)
					ev, err := transport.UnmarshalFor(img, ids)
					if (err == nil) != ok {
						t.Fatalf("%v %s: admitted %t, the contracts say %t (%v)", kind, shapeString(hdrs), err == nil, ok, err)
					}
					if ok {
						event.Free(ev)
						admitted++
						feedShape(t, names, &long, img, kind, hdrs, top, as)
					}
				}
				if len(hdrs) > len(names) {
					return
				}
				pos := max(len(names)-1-len(hdrs), 0)
				for _, h := range samples[names[pos]] {
					walk(kind, append(hdrs, h))
				}
			}
			walk(event.ECast, nil)
			walk(event.ESend, nil)
			t.Logf("%d shapes, %d admitted", shapes, admitted)
		})
	}
}

// feedShape hands an admitted image to a fresh plain and a fresh
// optimized member, which must deliver it once (as a cast or a send, as
// it reaches the top) if top and never otherwise, and to the long-lived
// pair, replacing a member whose view the image changed.
func feedShape(t *testing.T, names []string, long *[2]*shapeMember, img []byte, kind event.Type, hdrs []event.Header, top bool, as event.Type) {
	t.Helper()
	want := []bool(nil)
	if top {
		want = []bool{as == event.ECast}
	}
	for i, optimized := range []bool{false, true} {
		m := newShapeMember(t, names, optimized)
		if !m.Packet(img) || !slices.Equal(m.delivered, want) {
			t.Fatalf("%v %s (optimized %t): delivered %v, want %v", kind, shapeString(hdrs), optimized, m.delivered, want)
		}
		if !long[i].Packet(img) {
			t.Fatalf("%v %s: a long-lived member refused an admitted image", kind, shapeString(hdrs))
		}
		if long[i].viewed {
			long[i] = newShapeMember(t, names, optimized)
		}
	}
}

func shapeString(hdrs []event.Header) string {
	s := make([]string, len(hdrs))
	for i, h := range hdrs {
		s[i] = h.HdrString()
	}
	return fmt.Sprint(s)
}

// stackImages returns the full wire images of one cast and one send as
// rank 1 of a two-member view running the named stack emits them.
func stackImages(t testing.TB, names []string) (cast, send []byte) {
	t.Helper()
	v := event.NewView("g", 1, []event.Addr{1, 2}, 1)
	var w transport.Writer
	stk, err := stack.Build(names, layer.DefaultConfig(v), stack.Func, stack.Callbacks{Net: func(ev *event.Event) {
		if !ev.ApplMsg {
			return
		}
		if err := transport.Marshal(ev, 1, &w); err != nil {
			t.Fatal(err)
		}
		if ev.Type == event.ECast {
			cast = w.Bytes()
		} else {
			send = w.Bytes()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	stk.SubmitDn(event.InitEv(v))
	stk.SubmitDn(event.CastEv([]byte("a cast")))
	stk.SubmitDn(event.SendEv(0, []byte("a send")))
	if cast == nil || send == nil {
		t.Fatal("the stack emitted no cast or no send")
	}
	return cast, send
}

// runImage is the wire of an order announcement for a run: the
// sequencer of a two-member view orders two casts of rank 1's that
// arrive in one burst.
func runImage(t testing.TB, names []string) []byte {
	t.Helper()
	views := [2]*event.View{event.NewView("g", 1, []event.Addr{1, 2}, 0), event.NewView("g", 1, []event.Addr{1, 2}, 1)}
	var casts [][]byte
	var run []byte
	for rank := 1; rank >= 0; rank-- {
		stk, err := stack.Build(names, layer.DefaultConfig(views[rank]), stack.Func, stack.Callbacks{Net: func(ev *event.Event) {
			if ev.Type != event.ECast {
				return
			}
			var w transport.Writer
			if err := transport.Marshal(ev, rank, &w); err != nil {
				t.Fatal(err)
			}
			if ev.ApplMsg {
				casts = append(casts, w.Bytes())
			} else if o, ok := ev.Msg.Headers[0].(totalOrder); ok && o.Count == 2 {
				run = w.Bytes()
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		stk.SubmitDn(event.InitEv(views[rank]))
		if rank == 1 {
			stk.SubmitDn(event.CastEv([]byte("one")))
			stk.SubmitDn(event.CastEv([]byte("two")))
			continue
		}
		for _, c := range casts {
			ev, err := transport.Unmarshal(c)
			if err != nil {
				t.Fatal(err)
			}
			stk.DeliverUp(ev)
		}
		stk.SubmitDn(event.BurstEndEv())
	}
	if run == nil {
		t.Fatal("the sequencer announced no run of two")
	}
	return run
}

// FuzzUnmarshalFor: no bytes may make UnmarshalFor panic for the 10-layer
// or the virtually synchronous stack, and an image it admits must
// survive Marshal: decoded again, it has the same type, sender, payload
// and headers.
func FuzzUnmarshalFor(f *testing.F) {
	for _, names := range [][]string{Stack10(), StackVsync()} {
		vsync := len(names) != len(Stack10())
		cast, send := stackImages(f, names)
		f.Add(cast, vsync)
		f.Add(send, vsync)
		f.Add(runImage(f, names), vsync)
		// The foreign shapes of core's malformed-wire test: no headers at
		// all, the 4-layer stack's cast, and the cast without its bottom
		// header or cut short to its k outermost headers.
		ev, err := transport.Unmarshal(cast)
		if err != nil {
			f.Fatal(err)
		}
		c4, _ := stackImages(f, Stack4())
		f.Add(c4, vsync)
		for lo := range len(ev.Msg.Headers) + 1 {
			for _, hi := range []int{len(ev.Msg.Headers), len(ev.Msg.Headers) - 1} {
				if lo > hi {
					continue
				}
				cut := event.Alloc()
				cut.Type, cut.ApplMsg, cut.Msg.Payload = ev.Type, ev.ApplMsg, ev.Msg.Payload
				cut.Msg.Headers = event.AppendClonedHeaders(cut.Msg.Headers[:0], ev.Msg.Headers[lo:hi])
				var w transport.Writer
				if err := transport.Marshal(cut, 1, &w); err != nil {
					f.Fatal(err)
				}
				f.Add(w.Bytes(), vsync)
				event.Free(cut)
			}
		}
		event.Free(ev)
	}
	ids := [2][]byte{transport.StackIDs(Stack10()), transport.StackIDs(StackVsync())}
	f.Fuzz(func(t *testing.T, data []byte, vsync bool) {
		stk := ids[0]
		if vsync {
			stk = ids[1]
		}
		ev, err := transport.UnmarshalFor(data, stk)
		if err != nil {
			return
		}
		defer event.Free(ev)
		var w transport.Writer
		if err := transport.Marshal(ev, ev.Peer, &w); err != nil {
			t.Fatalf("an admitted image does not marshal: %v", err)
		}
		again, err := transport.UnmarshalFor(w.Bytes(), stk)
		if err != nil {
			t.Fatalf("an admitted image, marshaled, is refused: %v", err)
		}
		defer event.Free(again)
		if again.Type != ev.Type || again.Peer != ev.Peer || string(again.Msg.Payload) != string(ev.Msg.Payload) ||
			shapeString(again.Msg.Headers) != shapeString(ev.Msg.Headers) {
			t.Fatalf("marshaled and decoded again: %v %d %s %q, was %v %d %s %q",
				again.Type, again.Peer, shapeString(again.Msg.Headers), again.Msg.Payload,
				ev.Type, ev.Peer, shapeString(ev.Msg.Headers), ev.Msg.Payload)
		}
	})
}
