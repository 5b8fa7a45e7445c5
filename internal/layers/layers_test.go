package layers

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/layer"
)

// Direct behavioural tests of individual layers, complementing the
// IR-differential suite (irdiff_test.go) and the whole-stack integration
// suite in internal/core.

func mkState(t *testing.T, name string, n, rank int) layer.State {
	t.Helper()
	b, err := layer.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return b(layer.DefaultConfig(testView(n, rank)))
}

func dn(st layer.State, ev *event.Event) (ups, dns []*event.Event) {
	var c collectorSink
	st.HandleDn(ev, &c)
	return c.ups, c.dns
}

func up(st layer.State, ev *event.Event) (ups, dns []*event.Event) {
	var c collectorSink
	st.HandleUp(ev, &c)
	return c.ups, c.dns
}

func TestRegistryHasAllComponents(t *testing.T) {
	want := []string{Bottom, Mnak, Pt2pt, Mflow, Pt2ptw, Frag, Collect, Local, Top, PartialAppl, Total, Suspect, Membership}
	names := layer.Names()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("component %q not registered", w)
		}
	}
}

func TestPt2ptwWindowBlocksAndReleases(t *testing.T) {
	cfg := layer.DefaultConfig(testView(2, 0))
	cfg.WindowSize = 4
	b, _ := layer.Lookup(Pt2ptw)
	st := b(cfg)

	sent := 0
	for i := 0; i < 10; i++ {
		_, dns := dn(st, event.SendEv(1, []byte{byte(i)}))
		sent += len(dns)
		freeAll(dns)
	}
	if sent != 4 {
		t.Fatalf("window 4 let %d sends through", sent)
	}
	// A window acknowledgment opens the window and flushes the queue.
	ack := event.Alloc()
	ack.Dir, ack.Type, ack.Peer = event.Up, event.ESend, 1
	ack.Msg.Push(p2pwAck{Count: 4})
	ups, dns := up(st, ack)
	if len(ups) != 0 {
		t.Fatal("ack leaked upward")
	}
	if len(dns) != 4 {
		t.Fatalf("ack released %d sends, want 4 (window refilled)", len(dns))
	}
	freeAll(dns)
}

func TestPt2ptwReceiverAcksEveryHalfWindow(t *testing.T) {
	cfg := layer.DefaultConfig(testView(2, 1))
	cfg.WindowSize = 8
	b, _ := layer.Lookup(Pt2ptw)
	st := b(cfg)
	acks := 0
	for i := 0; i < 16; i++ {
		ev := event.Alloc()
		ev.Dir, ev.Type, ev.Peer = event.Up, event.ESend, 0
		ev.Msg.Push(p2pwData{})
		ups, dns := up(st, ev)
		freeAll(ups)
		for _, d := range dns {
			if _, ok := d.Msg.Top().(p2pwAck); ok {
				acks++
			}
			event.Free(d)
		}
	}
	if acks != 4 {
		t.Fatalf("16 deliveries produced %d window acks, want 4 (every window/2=4)", acks)
	}
}

func TestMflowCreditBlocksAndReleases(t *testing.T) {
	cfg := layer.DefaultConfig(testView(2, 0))
	cfg.CreditBytes = 100
	b, _ := layer.Lookup(Mflow)
	st := b(cfg)

	passed := 0
	for i := 0; i < 10; i++ {
		_, dns := dn(st, event.CastEv(make([]byte, 30)))
		passed += len(dns)
		freeAll(dns)
	}
	if passed != 3 { // 3×30=90 ≤ 100, the 4th would be 120
		t.Fatalf("credit 100 passed %d×30B casts, want 3", passed)
	}
	cr := event.Alloc()
	cr.Dir, cr.Type, cr.Peer = event.Up, event.ESend, 1
	cr.Msg.Push(mflowCredit{Bytes: 90})
	_, dns := up(st, cr)
	if len(dns) != 3 {
		t.Fatalf("credit released %d casts, want 3", len(dns))
	}
	freeAll(dns)
}

func TestMflowSingletonViewNeverBlocks(t *testing.T) {
	cfg := layer.DefaultConfig(testView(1, 0))
	cfg.CreditBytes = 10
	b, _ := layer.Lookup(Mflow)
	st := b(cfg)
	for i := 0; i < 100; i++ {
		_, dns := dn(st, event.CastEv(make([]byte, 1000)))
		if len(dns) != 1 {
			t.Fatalf("cast %d blocked in a singleton view", i)
		}
		freeAll(dns)
	}
}

func TestFragSplitCounts(t *testing.T) {
	cfg := layer.DefaultConfig(testView(2, 0))
	cfg.MaxFragSize = 100
	b, _ := layer.Lookup(Frag)
	st := b(cfg)
	for _, tc := range []struct {
		size, frags int
	}{
		{0, 1}, {1, 1}, {100, 1}, {101, 2}, {200, 2}, {201, 3}, {1000, 10},
	} {
		_, dns := dn(st, event.CastEv(make([]byte, tc.size)))
		if len(dns) != tc.frags {
			t.Fatalf("size %d: %d fragments, want %d", tc.size, len(dns), tc.frags)
		}
		total := 0
		for _, d := range dns {
			total += len(d.Msg.Payload)
		}
		if total != tc.size {
			t.Fatalf("size %d: fragments carry %d bytes", tc.size, total)
		}
		freeAll(dns)
	}
}

func TestFragReassembly(t *testing.T) {
	sender := mkState(t, Frag, 2, 0)
	recv := mkState(t, Frag, 2, 1)
	payload := make([]byte, 20000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	_, frags := dn(sender, event.CastEv(payload))
	var out []*event.Event
	for _, f := range frags {
		f.Dir, f.Peer = event.Up, 0
		ups, _ := up(recv, f)
		out = append(out, ups...)
	}
	if len(out) != 1 {
		t.Fatalf("reassembly produced %d events", len(out))
	}
	if string(out[0].Msg.Payload) != string(payload) {
		t.Fatal("reassembled payload corrupted")
	}
	freeAll(out)
}

func TestMnakRetransmitOnNak(t *testing.T) {
	sender := mkState(t, Mnak, 2, 0)
	for i := 0; i < 5; i++ {
		_, dns := dn(sender, event.CastEv([]byte{byte(i)}))
		freeAll(dns)
	}
	nak := event.Alloc()
	nak.Dir, nak.Type, nak.Peer = event.Up, event.ESend, 1
	nak.Msg.Push(mnakNak{Lo: 1, Hi: 3})
	_, dns := up(sender, nak)
	if len(dns) != 3 {
		t.Fatalf("NAK [1,3] produced %d retransmissions, want 3", len(dns))
	}
	for _, d := range dns {
		if d.Type != event.ESend || d.Peer != 1 {
			t.Fatalf("retransmission misdirected: %v", d)
		}
		if _, ok := d.Msg.Top().(mnakRetrans); !ok {
			t.Fatalf("retransmission lacks header: %v", d.Msg.Top())
		}
	}
	freeAll(dns)
}

func TestMnakStabilityGC(t *testing.T) {
	sender := mkState(t, Mnak, 2, 0).(*mnakState)
	for i := 0; i < 5; i++ {
		_, dns := dn(sender, event.CastEv([]byte{byte(i)}))
		freeAll(dns)
	}
	if n := logCount(&sender.logs[0]); n != 5 {
		t.Fatalf("send log holds %d, want 5", n)
	}
	st := event.Alloc()
	st.Dir, st.Type = event.Dn, event.EStable
	st.Stability = []int64{3, 0}
	_, dns := dn(sender, st)
	freeAll(dns)
	if n := logCount(&sender.logs[0]); n != 2 {
		t.Fatalf("after stability 3, the send log holds %d entries, want 2", n)
	}
	// A stale NAK for a stabilized message is skipped silently.
	nak := event.Alloc()
	nak.Dir, nak.Type, nak.Peer = event.Up, event.ESend, 1
	nak.Msg.Push(mnakNak{Lo: 0, Hi: 2})
	_, dns = up(sender, nak)
	if len(dns) != 0 {
		t.Fatalf("stale NAK produced %d retransmissions", len(dns))
	}
}

func TestSuspectDetectsSilence(t *testing.T) {
	cfg := layer.DefaultConfig(testView(3, 0))
	cfg.SuspectTimeout = int64(1e9)
	b, _ := layer.Lookup(Suspect)
	st := b(cfg)

	feedTimer := func(now int64) (suspects []int) {
		ups, dns := up(st, event.TimerEv(now))
		freeAll(dns)
		for _, u := range ups {
			if u.Type == event.ESuspect {
				suspects = append(suspects, u.Ranks...)
			}
			event.Free(u)
		}
		return suspects
	}
	hear := func(from int) {
		ev := event.Alloc()
		ev.Dir, ev.Type, ev.Peer = event.Up, event.ECast, from
		ev.Msg.Push(suspectPass{})
		ups, dns := up(st, ev)
		freeAll(ups)
		freeAll(dns)
	}
	if s := feedTimer(0); s != nil {
		t.Fatalf("suspects at baseline: %v", s)
	}
	// Member 1 talks at t=0.5s; member 2 stays silent since baseline.
	feedTimer(int64(5e8))
	hear(1)
	got := feedTimer(int64(1.2e9))
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("suspects = %v, want [2]", got)
	}
	// Member 1 eventually times out too; member 2 is not re-announced.
	if s := feedTimer(int64(3e9)); len(s) != 1 || s[0] != 1 {
		t.Fatalf("second round suspects = %v, want [1]", s)
	}
}

func TestTotalSequencerOrdersForeignCasts(t *testing.T) {
	seq := mkState(t, Total, 2, 0)
	// A foreign unstamped cast arrives at the sequencer.
	ev := event.Alloc()
	ev.Dir, ev.Type, ev.Peer = event.Up, event.ECast, 1
	ev.ApplMsg = true
	ev.Msg.Payload = []byte("x")
	ev.Msg.Push(&totalData{LocalSeq: 0, GSeq: -1})
	ups, dns := up(seq, ev)
	if len(ups) != 1 {
		t.Fatalf("sequencer delivered %d, want 1 (immediate order assignment)", len(ups))
	}
	if len(dns) != 0 {
		t.Fatalf("sequencer announced %d orders before the burst ended, want 0", len(dns))
	}
	freeAll(ups)
	// The run of one closes at the end of the burst, ahead of the marker.
	ups, dns = dn(seq, event.BurstEndEv())
	if len(ups) != 0 || len(dns) != 2 || dns[1].Type != event.EBurstEnd {
		t.Fatalf("burst end emitted ups=%d dns=%d, want the announcement and the marker", len(ups), len(dns))
	}
	ord, ok := dns[0].Msg.Top().(totalOrder)
	if !ok || ord.GSeq != 0 || ord.Origin != 1 || ord.Count != 1 {
		t.Fatalf("announcement = %v", dns[0].Msg.Top())
	}
	freeAll(dns)
}

func TestTotalNonSequencerBuffersUntilOrder(t *testing.T) {
	member := mkState(t, Total, 2, 1)
	data := event.Alloc()
	data.Dir, data.Type, data.Peer = event.Up, event.ECast, 1
	data.ApplMsg = true
	data.Msg.Payload = []byte("y")
	data.Msg.Push(&totalData{LocalSeq: 0, GSeq: -1})
	ups, dns := up(member, data)
	if len(ups) != 0 || len(dns) != 0 {
		t.Fatalf("unordered cast leaked: ups=%d dns=%d", len(ups), len(dns))
	}
	ord := event.Alloc()
	ord.Dir, ord.Type, ord.Peer = event.Up, event.ECast, 0
	ord.Msg.Push(totalOrder{Origin: 1, LocalSeq: 0, GSeq: 0, Count: 1})
	ups, dns = up(member, ord)
	if len(ups) != 1 || string(ups[0].Msg.Payload) != "y" {
		t.Fatalf("order announcement did not release the cast: %v", ups)
	}
	freeAll(ups)
	freeAll(dns)
}

func TestTotalOrderBeforeData(t *testing.T) {
	member := mkState(t, Total, 2, 1)
	ord := event.Alloc()
	ord.Dir, ord.Type, ord.Peer = event.Up, event.ECast, 0
	ord.Msg.Push(totalOrder{Origin: 1, LocalSeq: 0, GSeq: 0, Count: 1})
	ups, dns := up(member, ord)
	if len(ups)+len(dns) != 0 {
		t.Fatal("early order produced output")
	}
	data := event.Alloc()
	data.Dir, data.Type, data.Peer = event.Up, event.ECast, 1
	data.ApplMsg = true
	data.Msg.Payload = []byte("z")
	data.Msg.Push(&totalData{LocalSeq: 0, GSeq: -1})
	ups, dns = up(member, data)
	if len(ups) != 1 || string(ups[0].Msg.Payload) != "z" {
		t.Fatalf("late data not released by early order: %v", ups)
	}
	freeAll(ups)
	freeAll(dns)
}

func TestCollectComputesStabilityFrontier(t *testing.T) {
	st := mkState(t, Collect, 2, 0)
	// Our own acknowledgment vector.
	ack := event.Alloc()
	ack.Dir, ack.Type = event.Up, event.EAck
	ack.Stability = []int64{5, 4}
	ups, dns := up(st, ack)
	freeAll(ups)
	freeAll(dns)
	// Member 1's gossip: it has less of our traffic.
	g := event.Alloc()
	g.Dir, g.Type, g.Peer = event.Up, event.ECast, 1
	g.Msg.Push(collectGossip{Vector: []int64{3, 4}})
	ups, dns = up(st, g)
	var stable []int64
	for _, u := range ups {
		if u.Type == event.EStable {
			stable = u.Stability
		}
		event.Free(u)
	}
	freeAll(dns)
	if stable == nil {
		t.Fatal("no EStable emitted")
	}
	if stable[0] != 3 || stable[1] != 4 {
		t.Fatalf("frontier = %v, want [3 4]", stable)
	}
}

// TestCollectFrontierMatchesColumnScan: over random acknowledgment and
// gossip sequences — rows that regress included, as a reordering network
// could deliver them — collect announces exactly the frontiers a plain
// per-origin scan over every member's latest vector computes, one EStable
// each way, each with a vector of its own.
func TestCollectFrontierMatchesColumnScan(t *testing.T) {
	const n = 7
	rng := rand.New(rand.NewSource(1))
	st := mkState(t, Collect, n, 2)
	rows := make([][]int64, n)
	for r := range rows {
		rows[r] = make([]int64, n)
	}
	frontier := make([]int64, n)
	announced := 0
	for step := 0; step < 2000; step++ {
		r := rng.Intn(n)
		row := make([]int64, n)
		for o := range row {
			row[o] = rows[r][o] + int64(rng.Intn(4)) - 1
		}
		rows[r] = row
		want := false
		for o := 0; o < n; o++ {
			m := rows[0][o]
			for _, other := range rows[1:] {
				m = min(m, other[o])
			}
			if m > frontier[o] {
				frontier[o], want = m, true
			}
		}
		ev := event.Alloc()
		ev.Dir = event.Up
		if r == 2 {
			ev.Type, ev.Stability = event.EAck, append([]int64(nil), row...)
		} else {
			ev.Type, ev.Peer = event.ECast, r
			ev.Msg.Push(collectGossip{Vector: append([]int64(nil), row...)})
		}
		ups, dns := up(st, ev)
		if !want {
			if len(ups)+len(dns) != 0 {
				t.Fatalf("step %d: %d ups, %d downs with the frontier unmoved", step, len(ups), len(dns))
			}
			continue
		}
		announced++
		if len(ups) != 1 || len(dns) != 1 || ups[0].Type != event.EStable || dns[0].Type != event.EStable {
			t.Fatalf("step %d: ups %v, downs %v, want one EStable each way", step, ups, dns)
		}
		if !reflect.DeepEqual(ups[0].Stability, frontier) || !reflect.DeepEqual(dns[0].Stability, frontier) {
			t.Fatalf("step %d: up %v, down %v, want %v", step, ups[0].Stability, dns[0].Stability, frontier)
		}
		if dns[0].Stability[0]++; ups[0].Stability[0] != frontier[0] {
			t.Fatalf("step %d: the up and down vectors share storage", step)
		}
		if grown := append(dns[0].Stability, 0); ups[0].Stability[0] != frontier[0] || len(grown) != n+1 {
			t.Fatalf("step %d: appending to the down vector reached the up vector", step)
		}
		freeAll(ups)
		freeAll(dns)
	}
	if announced < 100 {
		t.Fatalf("only %d announcements in 2000 steps", announced)
	}
}

// TestMembershipDropsVariantsOnWrongEventType: headers come off the
// network, so a control variant on the kind of event that never carries
// it (an aggregate on a cast, a leave on a send, another layer's
// header) must be dropped — no panic, no output, no state change.
func TestMembershipDropsVariantsOnWrongEventType(t *testing.T) {
	fed := 0
	for _, h := range append(membershipVariants(), suspectPing{}) {
		var types []event.Type
		switch h.(type) {
		case membLeave:
			types = []event.Type{event.ESend}
		case membFlushTree, membFlushAgg:
			types = []event.Type{event.ECast}
		case suspectPing:
			types = []event.Type{event.ECast, event.ESend}
		} // Pass and View are legal on both
		for _, typ := range types {
			st := mkState(t, Membership, 4, 1)
			ev := event.Alloc()
			ev.Dir, ev.Type, ev.Peer = event.Up, typ, 0
			ev.Msg.Push(h)
			ups, dns := up(st, ev)
			if len(ups)+len(dns) != 0 {
				t.Errorf("%s on %v emitted %d ups, %d downs", h.HdrString(), typ, len(ups), len(dns))
			}
			if !reflect.DeepEqual(st, mkState(t, Membership, 4, 1)) {
				t.Errorf("%s on %v changed the state", h.HdrString(), typ)
			}
			fed++
		}
	}
	if fed != 7 { // 1 leave + 2 flush-down + 2 flush-up + the foreign header twice
		t.Fatalf("fed %d misplaced headers, want 7", fed)
	}
}

func TestLocalReflectsOwnCasts(t *testing.T) {
	st := mkState(t, Local, 3, 2)
	ev := event.CastEv([]byte("me"))
	ev.Msg.Push(event.NoHdr{L: "above"}) // pushed by an upper layer
	var c collectorSink
	st.HandleDn(ev, &c)
	if len(c.dns) != 1 || len(c.ups) != 1 {
		t.Fatalf("local: dns=%d ups=%d", len(c.dns), len(c.ups))
	}
	copyEv := c.ups[0]
	if copyEv.Peer != 2 || string(copyEv.Msg.Payload) != "me" {
		t.Fatalf("reflected copy: %+v", copyEv)
	}
	// The copy carries only the upper layers' headers.
	if len(copyEv.Msg.Headers) != 1 || copyEv.Msg.Top().(event.NoHdr).L != "above" {
		t.Fatalf("copy headers: %v", copyEv.Msg.Headers)
	}
	// The original grew local's own header.
	if _, ok := c.dns[0].Msg.Top().(localHdr); !ok {
		t.Fatalf("original top header: %v", c.dns[0].Msg.Top())
	}
	freeAll(c.ups)
	freeAll(c.dns)
}

func TestDuplicateLayerRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	layer.Register(Bottom, nil)
}

func TestStacksAreWellFormedLists(t *testing.T) {
	for name, s := range map[string][]string{
		"4": Stack4(), "10": Stack10(), "fifo": StackFifo(), "vsync": StackVsync(),
	} {
		if s[len(s)-1] != Bottom {
			t.Errorf("stack %s does not end in bottom", name)
		}
		seen := map[string]bool{}
		for _, l := range s {
			if seen[l] {
				t.Errorf("stack %s repeats layer %s", name, l)
			}
			seen[l] = true
			if _, err := layer.Lookup(l); err != nil {
				t.Errorf("stack %s uses unknown layer: %v", name, err)
			}
		}
	}
	if len(Stack10()) != 10 {
		t.Errorf("Stack10 has %d layers", len(Stack10()))
	}
	if len(Stack4()) != 4 {
		t.Errorf("Stack4 has %d layers", len(Stack4()))
	}
}

func TestHeaderStringsAreDistinct(t *testing.T) {
	hs := []event.Header{
		bottomHdr{}, &mnakData{Seqno: 1}, mnakPass{}, mnakNak{Lo: 1, Hi: 2}, mnakRetrans{Seqno: 3},
		&p2pData{Seqno: 1, Ack: 2}, p2pRetrans{Seqno: 1, Ack: 2}, p2pAck{Ack: 1}, p2pPass{},
		p2pwData{}, p2pwAck{Count: 1}, p2pwPass{},
		mflowData{}, mflowCredit{Bytes: 1}, mflowPass{},
		fragSolo{}, fragFrag{Idx: 1, Of: 2},
		collectPass{}, collectGossip{Vector: []int64{1}},
		localHdr{}, topHdr{}, paplHdr{},
		&totalData{LocalSeq: 1, GSeq: 2}, totalOrder{Origin: 1, LocalSeq: 2, GSeq: 3, Count: 1}, totalPass{},
		suspectPass{}, suspectPing{},
		membPass{}, membFlushTree{ViewSeq: 1, Round: 2}, membFlushAgg{ViewSeq: 1, Round: 2, Count: 3},
		membView{ViewSeq: 1}, membLeave{Rank: 1},
	}
	seen := map[string]bool{}
	for _, h := range hs {
		s := h.HdrString()
		if s == "" {
			t.Errorf("%T renders empty", h)
		}
		if seen[s] {
			t.Errorf("duplicate header rendering %q", s)
		}
		seen[s] = true
		if h.Layer() == "" {
			t.Errorf("%T has no layer", h)
		}
	}
	_ = fmt.Sprintf
}
