package layers

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// These tests validate each layer's IR against its executable handler —
// the stand-in for the paper's semantics-preserving OCaml-to-Nuprl
// importer (§4.1.2). Two instances of a layer receive the identical
// event stream: instance A runs the real handler; instance B runs the IR
// interpreter whenever the IR selects a non-fallback rule (falling back
// to the real handler otherwise, exactly as the bypass dispatch does).
// After every event the IR-visible state of both instances must agree,
// and whenever the IR claims a fast path, the real handler must have
// done exactly what the IR did: same single continuation, same header,
// no extra protocol messages.

// collector gathers a handler's emissions.
type collectorSink struct {
	ups, dns []*event.Event
}

func (c *collectorSink) PassUp(ev *event.Event) { c.ups = append(c.ups, ev) }
func (c *collectorSink) PassDn(ev *event.Event) { c.dns = append(c.dns, ev) }
func (c *collectorSink) reset()                 { c.ups, c.dns = nil, nil }

// cloneEvent deep-copies the fields the data path reads.
func cloneEvent(ev *event.Event) *event.Event {
	cp := event.Alloc()
	cp.Dir, cp.Type, cp.Peer, cp.ApplMsg = ev.Dir, ev.Type, ev.Peer, ev.ApplMsg
	cp.Time = ev.Time
	cp.Msg.Payload = ev.Msg.Payload
	// Deep-clone: both instances consume (and free) their copy.
	cp.Msg.Headers = event.AppendClonedHeaders(cp.Msg.Headers[:0], ev.Msg.Headers)
	return cp
}

type diffHarness struct {
	t    *testing.T
	def  *ir.LayerDef
	n    int64
	rank int64

	a, b   layer.State
	bindB  *ir.Binding
	sinkA  collectorSink
	sinkB  collectorSink
	hits   int // events where the IR took the fast path
	misses int
	// parks and releases count the fast-path events that parked a
	// message or released parked ones.
	parks, releases int
}

func newDiffHarness(t *testing.T, name string, cfg layer.Config) *diffHarness {
	t.Helper()
	def, err := ir.LookupDef(name)
	if err != nil {
		t.Fatalf("LookupDef(%s): %v", name, err)
	}
	build, err := layer.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	h := &diffHarness{
		t:    t,
		def:  def,
		n:    int64(cfg.View.N()),
		rank: int64(cfg.View.Rank),
		a:    build(cfg),
		b:    build(cfg),
	}
	h.bindB, err = ir.Bind(name, h.b)
	if err != nil {
		t.Fatalf("Bind(%s): %v", name, err)
	}
	return h
}

// snapshot reads every IR-visible variable of a state.
func (h *diffHarness) snapshot(st layer.State) map[string]any {
	out := map[string]any{}
	for _, v := range st.(ir.StateModel).IRVars() {
		if v.Get != nil {
			out[v.Name] = v.Get()
			continue
		}
		vals := make([]int64, h.n)
		for i := int64(0); i < h.n; i++ {
			vals[i] = v.GetAt(i)
		}
		out[v.Name] = vals
	}
	return out
}

// feed drives one event through both instances and checks agreement.
// The event is consumed. Returns A's emissions for the caller to route.
func (h *diffHarness) feed(ev *event.Event) (ups, dns []*event.Event) {
	h.t.Helper()
	evA, evB := ev, cloneEvent(ev)

	path := ir.PathKey{Dir: ev.Dir, Kind: ev.Type}
	frame := &ir.Frame{
		B:  h.bindB,
		Ev: ir.EvInfo{Peer: int64(ev.Peer), Len: int64(len(ev.Msg.Payload)), Appl: ev.ApplMsg, Rank: h.rank, N: h.n},
	}
	// What the layers above this one pushed (or will pop), encoded the
	// way the optimizer hands it to buffering effects.
	upper := ev.Msg.Headers
	if ev.Dir == event.Up {
		upper = upper[:len(upper)-1]
	}
	var w transport.Writer
	img, err := transport.ImageOf(&event.Event{Msg: event.Message{Headers: upper}}, &w)
	if err != nil {
		h.t.Fatalf("%s %s: %v", h.def.Name, path, err)
	}
	if ev.Dir == event.Up {
		// The layer pops its own header: expose its fields to the IR.
		top := evB.Msg.Top()
		fields, err := h.def.ReadHdr(top)
		if err != nil {
			h.t.Fatalf("%s %s: %v", h.def.Name, path, err)
		}
		frame.Hdr = fields
	}

	out, err := ir.Interp(h.def, path, frame)
	if err != nil {
		h.t.Fatalf("%s %s: interp: %v", h.def.Name, path, err)
	}

	h.sinkA.reset()
	h.dispatch(h.a, evA, &h.sinkA)

	if out.Fell {
		h.misses++
		// Fallback: the real handler drives instance B too.
		h.sinkB.reset()
		h.dispatch(h.b, evB, &h.sinkB)
	} else {
		h.hits++
		// Apply the IR's effects to B so buffers stay in sync.
		for _, ec := range out.Effects {
			spec, ok := h.bindB.Effect(ec.Name)
			if !ok {
				h.t.Fatalf("%s: effect %q not bound", h.def.Name, ec.Name)
			}
			spec.Run(ir.EffectCtx{Args: ec.Args, Payload: evB.Msg.Payload, ApplMsg: evB.ApplMsg, Hdrs: img.Hdrs, NHdrs: int(img.NHdrs)})
		}
		h.checkFastPath(path, out)
		switch {
		case out.Parked != nil:
			// B's copy is what the layer would have held: its own header
			// popped.
			h.parks++
			event.FreeHeader(evB.Msg.Pop())
			h.hold(out.Parked.Hold).Park(out.Parked.Args, evB)
		case out.Released != nil:
			h.releases++
			event.Free(evB)
			h.checkReleased(out.Released)
		default:
			event.Free(evB)
		}
	}

	// The IR-visible states of both instances must agree after every
	// event, fast path or not.
	sa, sb := h.snapshot(h.a), h.snapshot(h.b)
	if !reflect.DeepEqual(sa, sb) {
		h.t.Fatalf("%s %s: state divergence\n real: %v\n   ir: %v", h.def.Name, path, sa, sb)
	}
	return h.sinkA.ups, h.sinkA.dns
}

func (h *diffHarness) dispatch(st layer.State, ev *event.Event, snk layer.Sink) {
	if ev.Dir == event.Up {
		st.HandleUp(ev, snk)
	} else {
		st.HandleDn(ev, snk)
	}
}

// checkFastPath verifies that the real handler's visible behaviour was
// exactly what the IR's selected rule describes.
func (h *diffHarness) checkFastPath(path ir.PathKey, out ir.Outcome) {
	h.t.Helper()
	name := h.def.Name
	if path.Dir == event.Dn {
		wantDns := 1
		if len(h.sinkA.dns) != wantDns {
			h.t.Fatalf("%s %s: fast path emitted %d down events, want %d", name, path, len(h.sinkA.dns), wantDns)
		}
		wantUps := 0
		if out.Bounced {
			wantUps = 1
		}
		if len(h.sinkA.ups) != wantUps {
			h.t.Fatalf("%s %s: fast path emitted %d up events, want %d", name, path, len(h.sinkA.ups), wantUps)
		}
		got := h.sinkA.dns[0].Msg.Top()
		if !reflect.DeepEqual(got, out.Pushed) {
			h.t.Fatalf("%s %s: pushed header mismatch: real %v, ir %v", name, path, got, out.Pushed)
		}
		return
	}
	if r := out.Released; r != nil {
		// The release hands on what it names: nothing else moves.
		if int64(len(h.sinkA.ups)) != r.Count || len(h.sinkA.dns) != 0 {
			h.t.Fatalf("%s %s: releasing %d, the handler emitted ups=%d dns=%d",
				name, path, r.Count, len(h.sinkA.ups), len(h.sinkA.dns))
		}
		return
	}
	if out.Consumed {
		// Absorbed control traffic: nothing may continue in either direction.
		if len(h.sinkA.ups) != 0 || len(h.sinkA.dns) != 0 {
			h.t.Fatalf("%s %s: consuming fast path emitted ups=%d dns=%d, want 0/0",
				name, path, len(h.sinkA.ups), len(h.sinkA.dns))
		}
		return
	}
	if !out.Delivered {
		h.t.Fatalf("%s %s: IR fast path without delivery", name, path)
	}
	if len(h.sinkA.ups) != 1 || len(h.sinkA.dns) != 0 {
		h.t.Fatalf("%s %s: fast path emitted ups=%d dns=%d, want 1/0",
			name, path, len(h.sinkA.ups), len(h.sinkA.dns))
	}
}

// hold finds one of B's holds.
func (h *diffHarness) hold(name string) ir.HoldSpec {
	hs, ok := h.bindB.Hold(name)
	if !ok {
		h.t.Fatalf("%s: hold %q not bound", h.def.Name, name)
	}
	return hs
}

// checkReleased takes what the IR released from B's hold and requires
// the messages the handler passed up on A, in order.
func (h *diffHarness) checkReleased(r *ir.ReleaseCall) {
	h.t.Helper()
	take := h.hold(r.Hold).Take
	for i, up := range h.sinkA.ups {
		got := take(r.Args)
		if got == nil {
			h.t.Fatalf("%s: release of %d ran dry at %d", h.def.Name, r.Count, i)
		}
		if got.Peer != up.Peer || got.Peer != int(r.Peer) || string(got.Msg.Payload) != string(up.Msg.Payload) {
			h.t.Fatalf("%s: released message %d is %q from %d, the handler passed up %q from %d",
				h.def.Name, i, got.Msg.Payload, got.Peer, up.Msg.Payload, up.Peer)
		}
		event.Free(got)
	}
}

// free releases a batch of emissions the caller does not route further.
func freeAll(evs []*event.Event) {
	for _, e := range evs {
		event.Free(e)
	}
}

// testView builds a view of n members with the given rank.
func testView(n, rank int) *event.View {
	addrs := make([]event.Addr, n)
	for i := range addrs {
		addrs[i] = event.Addr(i + 1)
	}
	return event.NewView("diff", 1, addrs, rank)
}

// TestIRDiffDownPaths drives the down-going data paths of every layer
// with random application traffic and checks handler/IR agreement.
func TestIRDiffDownPaths(t *testing.T) {
	names := []string{Bottom, Mnak, Pt2pt, Mflow, Pt2ptw, Frag, Collect, Local, Top, PartialAppl, Total, Membership, Suspect}
	for _, name := range names {
		for _, rank := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/rank%d", name, rank), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(rank) + 1))
				cfg := layer.DefaultConfig(testView(3, rank))
				h := newDiffHarness(t, name, cfg)
				for i := 0; i < 400; i++ {
					size := rng.Intn(64)
					if rng.Intn(10) == 0 {
						size = cfg.MaxFragSize + rng.Intn(1000) // exercise frag fallback
					}
					payload := make([]byte, size)
					var ev *event.Event
					if rng.Intn(2) == 0 {
						ev = event.CastEv(payload)
					} else {
						ev = event.SendEv(rng.Intn(2), payload)
					}
					ups, dns := h.feed(ev)
					freeAll(ups)
					freeAll(dns)
				}
				if h.hits == 0 {
					t.Fatalf("%s: IR never took a fast path on the down stream", name)
				}
			})
		}
	}
}

// TestIRDiffUpMnak drives mnak's receive path from a real sender through
// a lossy, duplicating, reordering channel, routing NAKs back so that
// retransmissions (fallback paths) are exercised alongside the fast
// path.
func TestIRDiffUpMnak(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	senderCfg := layer.DefaultConfig(testView(2, 0))
	recvCfg := layer.DefaultConfig(testView(2, 1))
	sb, _ := layer.Lookup(Mnak)
	sender := sb(senderCfg)
	h := newDiffHarness(t, Mnak, recvCfg)

	var inFlight []*event.Event
	var senderSink collectorSink
	pump := func(ev *event.Event) {
		// Stamp the origin the network would provide.
		ev.Dir = event.Up
		ev.Peer = 0
		inFlight = append(inFlight, ev)
	}
	for i := 0; i < 600; i++ {
		senderSink.reset()
		sender.HandleDn(event.CastEv([]byte{byte(i)}), &senderSink)
		for _, d := range senderSink.dns {
			switch rng.Intn(10) {
			case 0: // lose
				event.Free(d)
			case 1: // duplicate
				pump(cloneEvent(d))
				pump(d)
			default:
				pump(d)
			}
		}
		// Deliver a random prefix of the in-flight set, shuffled.
		rng.Shuffle(len(inFlight), func(a, b int) { inFlight[a], inFlight[b] = inFlight[b], inFlight[a] })
		deliver := rng.Intn(len(inFlight) + 1)
		batch := inFlight[:deliver]
		inFlight = append([]*event.Event(nil), inFlight[deliver:]...)
		for _, ev := range batch {
			ups, dns := h.feed(ev)
			freeAll(ups)
			for _, nak := range dns {
				// Route receiver NAKs back to the sender; its
				// retransmissions re-enter the channel.
				nak.Dir = event.Up
				nak.Peer = 1
				senderSink.reset()
				sender.HandleUp(nak, &senderSink)
				for _, rt := range senderSink.dns {
					pump(rt)
				}
			}
		}
	}
	if h.hits < 100 {
		t.Fatalf("mnak up: only %d fast-path hits (misses %d); stream too hostile?", h.hits, h.misses)
	}
	if h.misses == 0 {
		t.Fatalf("mnak up: fallback paths never exercised")
	}
}

// TestIRDiffUpPt2pt drives pt2pt's receive path including acknowledgment
// thresholds (fallback every ack_threshold deliveries).
func TestIRDiffUpPt2pt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	senderCfg := layer.DefaultConfig(testView(2, 0))
	recvCfg := layer.DefaultConfig(testView(2, 1))
	sb, _ := layer.Lookup(Pt2pt)
	sender := sb(senderCfg)
	h := newDiffHarness(t, Pt2pt, recvCfg)

	var senderSink collectorSink
	for i := 0; i < 500; i++ {
		senderSink.reset()
		sender.HandleDn(event.SendEv(1, []byte{byte(i)}), &senderSink)
		if rng.Intn(12) == 0 {
			// Occasionally sweep the sender so retransmissions (and the
			// receiver's duplicate handling) are exercised.
			senderSink.reset()
			sender.HandleUp(event.TimerEv(int64(i)), &senderSink)
		}
		for _, d := range senderSink.dns {
			if rng.Intn(12) == 0 {
				event.Free(d) // lose it; a later sweep retransmits
				continue
			}
			d.Dir = event.Up
			d.Peer = 0
			ups, dns := h.feed(d)
			freeAll(ups)
			for _, ack := range dns {
				ack.Dir = event.Up
				ack.Peer = 1
				senderSink2 := collectorSink{}
				sender.HandleUp(ack, &senderSink2)
				freeAll(senderSink2.dns)
				freeAll(senderSink2.ups)
			}
		}
	}
	if h.hits < 100 || h.misses == 0 {
		t.Fatalf("pt2pt up: hits=%d misses=%d; want both paths exercised", h.hits, h.misses)
	}
}

// TestIRDiffUpPt2ptAck puts the harness on the sending side so the
// receiver's explicit acknowledgments flow back through feed: the
// consuming ack rule must match the real handler (absorb, no emission,
// retransmission buffers drained identically).
func TestIRDiffUpPt2ptAck(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	senderCfg := layer.DefaultConfig(testView(2, 0))
	recvCfg := layer.DefaultConfig(testView(2, 1))
	rb, _ := layer.Lookup(Pt2pt)
	recv := rb(recvCfg)
	h := newDiffHarness(t, Pt2pt, senderCfg)

	acks := 0
	for i := 0; i < 200; i++ {
		// One-directional traffic: the receiver never piggybacks, so every
		// ack_threshold deliveries it emits an explicit ack.
		ups, dns := h.feed(event.SendEv(1, []byte{byte(i)}))
		freeAll(ups)
		for _, d := range dns {
			d.Dir = event.Up
			d.Peer = 0
			var recvSink collectorSink
			recv.HandleUp(d, &recvSink)
			freeAll(recvSink.ups)
			for _, ack := range recvSink.dns {
				ack.Dir = event.Up
				ack.Peer = 1
				acks++
				ups2, dns2 := h.feed(ack)
				freeAll(ups2)
				freeAll(dns2)
			}
		}
		_ = rng
	}
	if acks == 0 {
		t.Fatal("pt2pt ack: receiver never emitted an explicit ack")
	}
	if h.misses > 0 {
		t.Fatalf("pt2pt ack: %d misses; sends and acks should all be fast paths", h.misses)
	}
}

// TestIRDiffUpPassThroughLayers validates the up paths of the layers
// whose receive side is (conditionally) a pure pass-through, by
// generating headed events from a sender instance of the same layer.
func TestIRDiffUpPassThroughLayers(t *testing.T) {
	names := []string{Bottom, Mflow, Pt2ptw, Frag, Collect, Local, Top, PartialAppl, Total, Membership, Suspect}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			senderCfg := layer.DefaultConfig(testView(2, 0))
			recvCfg := layer.DefaultConfig(testView(2, 1))
			sb, _ := layer.Lookup(name)
			sender := sb(senderCfg)
			h := newDiffHarness(t, name, recvCfg)

			var senderSink collectorSink
			for i := 0; i < 400; i++ {
				size := rng.Intn(128)
				var ev *event.Event
				if rng.Intn(2) == 0 {
					ev = event.CastEv(make([]byte, size))
				} else {
					ev = event.SendEv(1, make([]byte, size))
				}
				senderSink.reset()
				sender.HandleDn(ev, &senderSink)
				freeAll(senderSink.ups)
				for _, d := range senderSink.dns {
					d.Dir = event.Up
					d.Peer = 0
					ups, dns := h.feed(d)
					freeAll(ups)
					// Route flow-control acknowledgments back to the
					// sender so its window keeps moving.
					for _, back := range dns {
						back.Dir = event.Up
						back.Peer = 1
						s2 := collectorSink{}
						sender.HandleUp(back, &s2)
						freeAll(s2.dns)
						freeAll(s2.ups)
					}
				}
			}
			if h.hits == 0 {
				t.Fatalf("%s up: IR never took the fast path", name)
			}
		})
	}
}

// totalUp builds an arriving cast as total sees it: the header of the
// layer above under total's own.
func totalUp(origin int, h event.Header, payload string) *event.Event {
	ev := event.Alloc()
	ev.Dir, ev.Type, ev.Peer = event.Up, event.ECast, origin
	if payload != "" {
		ev.ApplMsg = true
		ev.Msg.Payload = []byte(payload)
		ev.Msg.Push(paplHdr{})
	}
	ev.Msg.Push(h)
	return ev
}

// both hands a non-data event to both instances of a harness, as the
// stack would: neither path has IR to compare. A's emissions are
// returned, B's dropped.
func (h *diffHarness) both(mk func() *event.Event, up bool) (ups, dns []*event.Event) {
	h.sinkA.reset()
	h.sinkB.reset()
	if up {
		h.a.HandleUp(mk(), &h.sinkA)
		h.b.HandleUp(mk(), &h.sinkB)
	} else {
		h.a.HandleDn(mk(), &h.sinkA)
		h.b.HandleDn(mk(), &h.sinkB)
	}
	freeAll(h.sinkB.ups)
	freeAll(h.sinkB.dns)
	return h.sinkA.ups, h.sinkA.dns
}

// TestIRDiffUpTotal drives total's receive path — the rules compiled
// from its alternates as well as its primary common case — against the
// handler: a member parking unordered casts and an announcement
// releasing them in order, announcements ahead of their casts, a gap in
// the sequencer's stamped casts with casts pending behind it, the
// sequencer opening, extending and closing order runs, a blocked
// sequencer, and announcements just inside and outside each of
// validRun's bounds. After every event the ordering state agrees, and
// whatever the IR claims as a fast path the handler did: the same
// deliveries, in the same order.
func TestIRDiffUpTotal(t *testing.T) {
	const n = 4
	payload := func(origin int, lseq int64) string { return fmt.Sprintf("m%d/%d", origin, lseq) }
	data := func(origin int, lseq, gseq int64) *event.Event {
		return totalUp(origin, newTotalData(lseq, gseq), payload(origin, lseq))
	}
	order := func(origin int32, lseq, gseq, count int64) *event.Event {
		return totalUp(0, totalOrder{Origin: origin, LocalSeq: lseq, GSeq: gseq, Count: count}, "")
	}
	feed := func(h *diffHarness, ev *event.Event) []*event.Event {
		t.Helper()
		ups, dns := h.feed(ev)
		freeAll(dns)
		return ups
	}
	delivered := func(ups []*event.Event) []string {
		var out []string
		for _, u := range ups {
			out = append(out, string(u.Msg.Payload))
		}
		freeAll(ups)
		return out
	}
	expect := func(got []string, want ...string) {
		t.Helper()
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("delivered %q, want %q", got, want)
		}
	}

	t.Run("park_release", func(t *testing.T) {
		h := newDiffHarness(t, Total, layer.DefaultConfig(testView(n, 2)))
		var got []string
		for l := int64(0); l < 3; l++ {
			got = append(got, delivered(feed(h, data(1, l, -1)))...)
		}
		expect(got)
		// Another origin's cast parks beside them; its run comes first.
		expect(delivered(feed(h, data(3, 0, -1))))
		expect(delivered(feed(h, order(3, 0, 0, 1))), payload(3, 0))
		expect(delivered(feed(h, order(1, 0, 1, 2))), payload(1, 0), payload(1, 1))
		expect(delivered(feed(h, order(1, 2, 3, 1))), payload(1, 2))
		if h.parks != 4 || h.releases != 3 || h.misses != 0 {
			t.Fatalf("parks %d releases %d misses %d; want 4, 3 and none", h.parks, h.releases, h.misses)
		}
	})

	t.Run("early_order", func(t *testing.T) {
		h := newDiffHarness(t, Total, layer.DefaultConfig(testView(n, 2)))
		expect(delivered(feed(h, order(1, 0, 0, 2))))
		expect(delivered(feed(h, data(3, 0, -1)))) // parked by the handler: an announcement is early
		expect(delivered(feed(h, data(1, 0, -1))), payload(1, 0))
		expect(delivered(feed(h, data(1, 1, -1))), payload(1, 1))
		expect(delivered(feed(h, order(3, 0, 2, 1))), payload(3, 0))
		// Nothing early any more: the next cast parks compiled.
		expect(delivered(feed(h, data(1, 2, -1))))
		expect(delivered(feed(h, order(1, 2, 3, 1))), payload(1, 2))
		if h.parks != 1 || h.releases != 2 {
			t.Fatalf("parks %d releases %d; want 1 and 2", h.parks, h.releases)
		}
	})

	t.Run("gap_with_pending", func(t *testing.T) {
		h := newDiffHarness(t, Total, layer.DefaultConfig(testView(n, 2)))
		expect(delivered(feed(h, data(0, 0, 0))), payload(0, 0))
		// The sequencer's g=1 is late: g=2 waits for it, and so does a run
		// numbered after it.
		expect(delivered(feed(h, data(0, 2, 2))))
		expect(delivered(feed(h, data(1, 0, -1))))
		expect(delivered(feed(h, order(1, 0, 3, 1))))
		expect(delivered(feed(h, data(0, 1, 1))), payload(0, 1), payload(0, 2), payload(1, 0))
		expect(delivered(feed(h, data(0, 3, 4))), payload(0, 3))
	})

	t.Run("sequencer_runs", func(t *testing.T) {
		h := newDiffHarness(t, Total, layer.DefaultConfig(testView(n, 0)))
		var orders []totalOrder
		arrive := func(origin int, lseq int64) []string {
			ups, dns := h.feed(data(origin, lseq, -1))
			for _, d := range dns {
				orders = append(orders, d.Msg.Top().(totalOrder))
			}
			freeAll(dns)
			return delivered(ups)
		}
		expect(arrive(1, 0), payload(1, 0)) // opens
		expect(arrive(1, 1), payload(1, 1)) // extends
		expect(arrive(2, 0), payload(2, 0)) // closes 1's, opens 2's
		hits := h.hits
		// A run closes at maxRun casts. The first of these closes 2's run
		// and the last the full one: the handler's.
		for l := int64(2); l < 2+maxRun+1; l++ {
			expect(arrive(1, l), payload(1, l))
		}
		if h.hits-hits != maxRun-1 {
			t.Fatalf("%d of %d arrivals extended a run compiled, want %d", h.hits-hits, maxRun+1, maxRun-1)
		}
		_, dns := h.both(event.BurstEndEv, false)
		for _, d := range dns {
			if d.Type == event.ECast {
				orders = append(orders, d.Msg.Top().(totalOrder))
			}
		}
		freeAll(dns)
		want := []totalOrder{
			{Origin: 1, LocalSeq: 0, GSeq: 0, Count: 2},
			{Origin: 2, LocalSeq: 0, GSeq: 2, Count: 1},
			{Origin: 1, LocalSeq: 2, GSeq: 3, Count: maxRun},
			{Origin: 1, LocalSeq: 2 + maxRun, GSeq: 3 + maxRun, Count: 1},
		}
		if !reflect.DeepEqual(orders, want) {
			t.Fatalf("announced %+v, want %+v", orders, want)
		}
	})

	t.Run("sequencer_blocked", func(t *testing.T) {
		h := newDiffHarness(t, Total, layer.DefaultConfig(testView(n, 0)))
		expect(delivered(feed(h, data(1, 0, -1))), payload(1, 0))
		ups, dns := h.both(func() *event.Event {
			ev := event.Alloc()
			ev.Dir, ev.Type = event.Up, event.EBlock
			return ev
		}, true)
		freeAll(ups)
		if len(dns) != 1 || dns[0].Type != event.ECast {
			t.Fatalf("the block passed down %v, want the open run's announcement", dns)
		}
		freeAll(dns)
		// Blocked, the sequencer's own cast goes out unstamped; its copy
		// comes back up and is numbered like anyone's.
		_, dns = h.feed(event.CastEv([]byte(payload(0, 0))))
		if len(dns) != 1 || dns[0].Msg.Top().(*totalData).GSeq != -1 {
			t.Fatalf("a blocked sequencer stamped its cast: %v", dns)
		}
		freeAll(dns)
		expect(delivered(feed(h, data(0, 0, -1))), payload(0, 0))
		expect(delivered(feed(h, data(2, 0, -1))), payload(2, 0))
	})

	t.Run("valid_run_bounds", func(t *testing.T) {
		h := newDiffHarness(t, Total, layer.DefaultConfig(testView(n, 2)))
		for l := int64(0); l < maxRun+1; l++ {
			expect(delivered(feed(h, data(1, l, -1))))
		}
		releases := h.releases
		for _, o := range []totalOrder{
			{Origin: 1, LocalSeq: 0, GSeq: 0, Count: 0},
			{Origin: 1, LocalSeq: 0, GSeq: 0, Count: -1},
			{Origin: 1, LocalSeq: 0, GSeq: 0, Count: maxRun + 1},
			{Origin: -1, LocalSeq: 0, GSeq: 0, Count: 1},
			{Origin: n, LocalSeq: 0, GSeq: 0, Count: 1},
			{Origin: 1, LocalSeq: -1, GSeq: 0, Count: 1},
			{Origin: 1, LocalSeq: math.MaxInt64 - maxRun + 1, GSeq: 0, Count: 1},
			{Origin: 1, LocalSeq: 0, GSeq: math.MaxInt64 - maxRun + 1, Count: 1},
		} {
			expect(delivered(feed(h, order(o.Origin, o.LocalSeq, o.GSeq, o.Count))))
		}
		if h.releases != releases {
			t.Fatal("an announcement outside validRun's bounds released casts")
		}
		var want []string
		for l := int64(0); l < maxRun; l++ {
			want = append(want, payload(1, l))
		}
		expect(delivered(feed(h, order(1, 0, 0, maxRun))), want...)
		// The last one, and a run numbered below next_global.
		expect(delivered(feed(h, order(1, maxRun, maxRun-1, 1))))
		expect(delivered(feed(h, order(1, maxRun, maxRun, 1))), payload(1, maxRun))
		if h.releases != releases+2 {
			t.Fatalf("%d releases at the bounds, want 2", h.releases-releases)
		}
		// A run of casts that are not the oldest parked is the handler's.
		expect(delivered(feed(h, data(1, maxRun+1, -1))))
		expect(delivered(feed(h, data(1, maxRun+2, -1))))
		expect(delivered(feed(h, order(1, maxRun+2, maxRun+1, 1))), payload(1, maxRun+2))
		expect(delivered(feed(h, order(1, maxRun+1, maxRun+2, 1))), payload(1, maxRun+1))
		if h.releases != releases+3 {
			t.Fatalf("%d releases, want 3", h.releases-releases)
		}
	})
}
