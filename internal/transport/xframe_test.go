package transport

import (
	"bytes"
	"testing"

	"ensemble/internal/event"
)

// xlink is a one-directional test link: a Batcher at `from` whose
// flushed frames are walked by the receive link at `to`.
type xlink struct {
	t    *testing.T
	sink *frameSink
	b    *Batcher
	w    *FrameWalker
	from event.Addr
	to   event.Addr
	// fed counts sink calls already walked, so feed() is incremental.
	fed int
}

func newXLink(t *testing.T, from, to event.Addr) *xlink {
	sink := &frameSink{}
	b := NewBatcher(sink, from, 0)
	return &xlink{t: t, sink: sink, b: b, w: NewWalker(true), from: from, to: to}
}

// feed walks every not-yet-walked frame and returns the surfaced subs
// plus the last frame's verdict.
func (l *xlink) feed() ([][]byte, walkResult) {
	l.t.Helper()
	var subs [][]byte
	var res walkResult
	for ; l.fed < len(l.sink.calls); l.fed++ {
		res = l.w.walkLink(l.from, l.to, l.sink.calls[l.fed].data, func(sub []byte) {
			subs = append(subs, append([]byte(nil), sub...))
		})
	}
	return subs, res
}

// skip drops not-yet-walked frames on the floor (simulated loss).
func (l *xlink) skip(n int) { l.fed += n }

func wantSubs(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d subs, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("sub %d = %x, want %x", i, got[i], want[i])
		}
	}
}

func TestXFrameFirstSubDeltasAcrossFrames(t *testing.T) {
	prefix := []uint64{7, 3}
	l := newXLink(t, 1, 2)
	w1 := cwire(prefix, 9, 4, 100, 0xAA)
	w2 := cwire(prefix, 9, 4, 101, 0xBB)
	w3 := cwire(prefix, 9, 4, 102, 0xCC)
	l.b.Send(2, w1)
	l.b.Flush()
	l.b.Send(2, w2)
	l.b.Send(2, w3)
	l.b.Flush()
	subs, res := l.feed()
	wantSubs(t, subs, [][]byte{w1, w2, w3})
	if res.genMiss || res.staleGen {
		t.Fatalf("clean chain reported %+v", res)
	}
	st := l.b.Stats()
	if st.XFrames != 2 || st.XFirstFull != 1 || st.XFirstDelta != 1 {
		t.Fatalf("first-sub split wrong: %+v", st)
	}
	// The second frame's first sub rode against the first frame's last
	// sub: it is no full sub, and the frame is smaller than its header
	// and the same two wires riding full.
	second := l.sink.calls[1].data
	if _, _, _, off, _ := parseXHeader(second); second[off] == subFull {
		t.Fatal("cross-frame first sub rode full")
	}
	if full := len(xhdr()) + 2 + len(w2) + 2 + len(w3); len(second) >= full {
		t.Fatalf("cross-frame first sub saved nothing: %d bytes, %d all full", len(second), full)
	}
}

func TestXFrameOpaqueWiresChainViaPrefix(t *testing.T) {
	l := newXLink(t, 1, 2)
	a := []byte("gossip-header-payload-one")
	b := []byte("gossip-header-payload-two")
	l.b.Send(2, a)
	l.b.Flush()
	l.b.Send(2, b)
	l.b.Flush()
	subs, res := l.feed()
	wantSubs(t, subs, [][]byte{a, b})
	if res.genMiss {
		t.Fatalf("opaque chain reported a miss: %+v", res)
	}
	if st := l.b.Stats(); st.XFirstDelta != 1 {
		t.Fatalf("opaque first sub should prefix-delta across frames: %+v", st)
	}
}

func TestXFrameLossTriggersResyncAndRecovers(t *testing.T) {
	prefix := []uint64{1, 1}
	l := newXLink(t, 1, 2)
	wires := make([][]byte, 8)
	for i := range wires {
		wires[i] = cwire(prefix, 5, 1, int64(50+i), byte(i))
	}
	l.b.Send(2, wires[0])
	l.b.Flush()
	subs, _ := l.feed()
	wantSubs(t, subs, wires[:1])

	// Lose the second frame entirely.
	l.b.Send(2, wires[1])
	l.b.Flush()
	l.skip(1)

	// The third frame's first sub needed the lost base: it parks in the
	// reorder stash — the hole could be plain reordering with the
	// predecessor still in flight — with no delivery, no garbage, and no
	// miss yet.
	l.b.Send(2, wires[2])
	l.b.Flush()
	subs, res := l.feed()
	if len(subs) != 0 || !res.stashed || res.genMiss || res.staleGen {
		t.Fatalf("post-loss frame: %d subs, res %+v", len(subs), res)
	}

	// The hole never fills: once the stash outgrows the nag threshold
	// the walker reports the miss that earns a resync.
	l.b.Send(2, wires[3])
	l.b.Flush()
	l.b.Send(2, wires[4])
	l.b.Flush()
	subs, res = l.feed()
	if len(subs) != 0 || !res.genMiss {
		t.Fatalf("stash past nag must miss: %d subs, res %+v", len(subs), res)
	}

	// The resync round trip: the receiver names the generation it could
	// not decode, the sender bumps, and the chain restarts full-first.
	l.b.HandleResync(2, res.cast, res.gen)
	if st := l.b.Stats(); st.ResyncBumps != 1 {
		t.Fatalf("resync must bump once: %+v", st)
	}
	// A duplicate resync for the old generation is ignored.
	l.b.HandleResync(2, res.cast, res.gen)
	if st := l.b.Stats(); st.ResyncBumps != 1 {
		t.Fatalf("duplicate resync must not bump again: %+v", st)
	}

	l.b.Send(2, wires[5])
	l.b.Flush()
	l.b.Send(2, wires[6])
	l.b.Flush()
	subs, res = l.feed()
	wantSubs(t, subs, wires[5:7])
	if res.genMiss {
		t.Fatalf("fresh generation did not re-adopt: %+v", res)
	}
}

func TestXFrameStaleGenerationIsGarbageNotResync(t *testing.T) {
	prefix := []uint64{2, 2}
	l := newXLink(t, 1, 2)
	l.b.Send(2, cwire(prefix, 1, 1, 10))
	l.b.Flush()
	stale := l.sink.calls[0].data // a gen-1 frame, replayed later
	l.feed()

	l.b.BumpGenerations()
	l.b.Send(2, cwire(prefix, 1, 1, 11))
	l.b.Flush()
	if _, res := l.feed(); res.genMiss {
		t.Fatalf("gen-2 full-first frame missed: %+v", res)
	}

	var n int
	res := l.w.walkLink(l.from, l.to, stale, func([]byte) { n++ })
	if !res.staleGen || res.genMiss || n != 1 {
		t.Fatalf("stale replay: %d subs, res %+v", n, res)
	}
	// And the mirror survived: the live chain keeps decoding.
	l.b.Send(2, cwire(prefix, 1, 1, 12))
	l.b.Flush()
	if _, res := l.feed(); res.genMiss {
		t.Fatalf("stale replay corrupted the mirror: %+v", res)
	}
}

func TestXFrameDuplicateDoesNotRewindMirror(t *testing.T) {
	prefix := []uint64{3, 3}
	l := newXLink(t, 1, 2)
	w1 := cwire(prefix, 1, 1, 20)
	w2 := cwire(prefix, 1, 1, 21)
	w3 := cwire(prefix, 1, 1, 22)
	l.b.Send(2, w1)
	l.b.Flush()
	first := l.sink.calls[0].data
	l.feed()
	l.b.Send(2, w2)
	l.b.Flush()
	l.feed()

	// Replay frame 1 (full-first, decodable statelessly): it must not
	// rewind the mirror under the in-order successor.
	res := l.w.walkLink(l.from, l.to, first, func([]byte) {})
	if res.genMiss || res.staleGen {
		t.Fatalf("full-first duplicate should decode quietly: %+v", res)
	}
	l.b.Send(2, w3)
	l.b.Flush()
	subs, res := l.feed()
	wantSubs(t, subs, [][]byte{w3})
	if res.genMiss {
		t.Fatalf("duplicate rewound the mirror: %+v", res)
	}
}

func TestXFrameCastChainSharedAcrossReceivers(t *testing.T) {
	prefix := []uint64{4, 4}
	sink := &frameSink{}
	b := NewBatcher(sink, 1, 0)
	recv := []*FrameWalker{NewWalker(true), NewWalker(true)}
	w1 := cwire(prefix, 1, 1, 30)
	w2 := cwire(prefix, 1, 1, 31)
	b.Cast(w1)
	b.Flush()
	b.Cast(w2)
	b.Flush()
	for i, w := range recv {
		for _, call := range sink.calls {
			var got [][]byte
			res := w.walkLink(1, event.Addr(10+i), call.data, func(sub []byte) {
				got = append(got, append([]byte(nil), sub...))
			})
			if res.genMiss || !res.cast {
				t.Fatalf("receiver %d: %+v", i, res)
			}
		}
	}
	if st := b.Stats(); st.XFirstDelta != 1 {
		t.Fatalf("cast chain should delta across frames: %+v", st)
	}
}

func TestXFrameBumpPeerRestartsBothChains(t *testing.T) {
	prefix := []uint64{5, 5}
	sink := &frameSink{}
	b := NewBatcher(sink, 1, 0)
	b.Send(2, cwire(prefix, 1, 1, 1))
	b.Cast(cwire(prefix, 1, 1, 2))
	b.Flush()
	b.BumpPeer(2)
	b.Send(2, cwire(prefix, 1, 1, 3))
	b.Cast(cwire(prefix, 1, 1, 4))
	b.Flush()
	// After the bump both chains restart: all four frames are full-first.
	if st := b.Stats(); st.XFirstFull != 4 || st.GenBumps != 1 {
		t.Fatalf("BumpPeer must restart pt2pt and cast chains: %+v", st)
	}
	// A rebind of a peer we never sent to directly still restarts the
	// cast chain — the restarted process receives casts with no mirror.
	b.BumpPeer(99)
	if st := b.Stats(); st.GenBumps != 2 {
		t.Fatalf("rebind must restart the cast chain: %+v", st)
	}
	// With no chains at all, BumpPeer is a no-op.
	b2 := NewBatcher(&frameSink{}, 1, 0)
	b2.BumpPeer(99)
	if st := b2.Stats(); st.GenBumps != 0 {
		t.Fatalf("no-chain bump counted: %+v", st)
	}
}

func TestXFrameInvalidateFromForcesStatelessDecode(t *testing.T) {
	prefix := []uint64{6, 6}
	l := newXLink(t, 1, 2)
	l.b.Send(2, cwire(prefix, 1, 1, 40))
	l.b.Flush()
	l.feed()
	l.w.InvalidateFrom(1)
	// The next frames' first subs delta against state the receiver just
	// dropped. They cannot decode, but the walker parks them in the
	// reorder stash first — a short gap usually means the predecessor is
	// still in flight — and only nags for a resync once the stash keeps
	// growing, proving the hole is a real discontinuity.
	var res walkResult
	for i := 0; i <= xStashNag; i++ {
		l.b.Send(2, cwire(prefix, 1, 1, 41+int64(i)))
		l.b.Flush()
		var subs [][]byte
		subs, res = l.feed()
		if len(subs) != 0 || !res.stashed {
			t.Fatalf("frame %d: undecodable frame must stash silently: %d subs, %+v", i, len(subs), res)
		}
		if wantMiss := i >= xStashNag; res.genMiss != wantMiss {
			t.Fatalf("frame %d: GenMiss=%v, want %v: %+v", i, res.genMiss, wantMiss, res)
		}
	}
	l.b.HandleResync(2, res.cast, res.gen)
	l.b.Send(2, cwire(prefix, 1, 1, 42))
	l.b.Flush()
	subs, res := l.feed()
	if res.genMiss || len(subs) != 1 {
		t.Fatalf("post-invalidate recovery failed: %d subs, %+v", len(subs), res)
	}
}

func TestResyncRoundTripAndStrictParse(t *testing.T) {
	pkt := appendResync(nil, true, 300)
	if !IsResync(pkt) || IsFrame(pkt) {
		t.Fatal("resync packet misclassified")
	}
	cast, gen, ok := ParseResync(pkt)
	if !ok || !cast || gen != 300 {
		t.Fatalf("ParseResync = %v %d %v", cast, gen, ok)
	}
	bad := [][]byte{
		nil,
		{ResyncMagic},
		{ResyncMagic, 0x02, 0x01},       // reserved flag bit
		{ResyncMagic, 0x00, 0x80},       // truncated uvarint
		{ResyncMagic, 0x00, 0x80, 0x00}, // non-minimal uvarint
		append(appendResync(nil, false, 7), 0xFF), // trailing bytes
	}
	for i, b := range bad {
		if _, _, ok := ParseResync(b); ok {
			t.Fatalf("bad resync %d parsed: %x", i, b)
		}
	}
}

func TestXFrameCorruptHeaderIsGarbageAndSeedsNothing(t *testing.T) {
	prefix := []uint64{8, 8}
	l := newXLink(t, 1, 2)
	l.b.Send(2, cwire(prefix, 1, 1, 60))
	l.b.Flush()
	frame := l.sink.calls[0].data
	for _, corrupt := range [][]byte{
		{FrameMagic},                   // truncated after magic
		{FrameMagic, 0x01},             // no generation
		{FrameMagic, 0x80, 0x01, 0x01}, // reserved flag bit
		{FrameMagic, 0x00, 0x80},       // truncated gen uvarint
		{FrameMagic, 0x00, 0x01, 0x00}, // frameSeq 0 is reserved
		func() []byte { // bit-flipped flags byte on a real frame
			c := append([]byte(nil), frame...)
			c[1] ^= 0x40
			return c
		}(),
	} {
		var n int
		res := l.w.walkLink(1, 2, corrupt, func([]byte) { n++ })
		if n != 1 || res.genMiss || res.staleGen {
			t.Fatalf("corrupt header %x: %d subs, res %+v", corrupt, n, res)
		}
	}
	// The real frame still adopts cleanly afterwards: corruption seeded
	// no mirror state.
	var got [][]byte
	res := l.w.walkLink(1, 2, frame, func(sub []byte) {
		got = append(got, append([]byte(nil), sub...))
	})
	if res.genMiss || len(got) != 1 || !bytes.Equal(got[0], cwire(prefix, 1, 1, 60)) {
		t.Fatalf("clean frame after corruption: %+v / %x", res, got)
	}
}

// TestXFrameColdLinkAnswersWithEncodedResync drives the exported link
// API a substrate sees: a cold link adopts a full-first frame silently,
// and a run of frames it cannot anchor ends in exactly one kind of
// answer — an encoded resync packet naming the chain — with the verdict
// counters moved to match.
func TestXFrameColdLinkAnswersWithEncodedResync(t *testing.T) {
	prefix := []uint64{9, 9}
	l := newXLink(t, 1, 2)
	w1 := cwire(prefix, 1, 1, 70)
	l.b.Send(2, w1)
	l.b.Flush()
	for i := 0; i < xStashNag+2; i++ { // frame 2 (lost below) + a stash past the nag
		l.b.Send(2, cwire(prefix, 1, 1, 71+int64(i)))
		l.b.Flush()
	}
	cold := NewWalker(true)
	var got [][]byte
	resync, decoded := cold.WalkLink(1, 2, l.sink.calls[0].data, func(sub []byte) { got = append(got, sub) })
	if resync != nil || !decoded || len(got) != 1 || !bytes.Equal(got[0], w1) {
		t.Fatalf("full-first frame on a cold link: subs %x resync %x decoded %t", got, resync, decoded)
	}
	// Skip frame 2; frames 3.. need a base the link never saw.
	var answers [][]byte
	for _, c := range l.sink.calls[2:] {
		resync, decoded := cold.WalkLink(1, 2, c.data, func([]byte) { t.Fatal("undecodable frame surfaced a sub") })
		if decoded {
			t.Fatal("undecodable frame reported decoded")
		}
		if resync != nil {
			answers = append(answers, resync)
		}
	}
	if len(answers) != 1 {
		t.Fatalf("%d resync answers, want 1 (the arrival past the stash nag threshold)", len(answers))
	}
	if cast, gen, ok := ParseResync(answers[0]); !ok || cast || gen != 1 {
		t.Fatalf("resync answer %x parsed as cast=%t gen=%d ok=%t", answers[0], cast, gen, ok)
	}
	c := cold.Counters()
	if c.Frames.Load() != int64(len(l.sink.calls)-1) || c.SubPackets.Load() != 1 ||
		c.GenMisses.Load() != 1 || c.Resyncs.Load() != 1 || c.StaleGenFrames.Load() != 0 {
		t.Fatalf("link counters: frames %d subs %d miss %d resync %d stale %d",
			c.Frames.Load(), c.SubPackets.Load(), c.GenMisses.Load(), c.Resyncs.Load(), c.StaleGenFrames.Load())
	}
	// A forked link shares the counters but not the mirrors.
	fork := cold.Fork()
	fork.WalkLink(1, 2, l.sink.calls[0].data, func([]byte) {})
	if c.Frames.Load() != int64(len(l.sink.calls)) || c.SubPackets.Load() != 2 {
		t.Fatalf("fork did not count into the parent: frames %d subs %d", c.Frames.Load(), c.SubPackets.Load())
	}
}

func TestXFrameFutureGenerationAdoptsWhenSelfContained(t *testing.T) {
	// A receiver that was restarted mid-generation sees "future" state:
	// whatever the header claims, a full-first frame adopts statelessly.
	prefix := []uint64{1, 2}
	l := newXLink(t, 1, 2)
	l.b.BumpGenerations() // no chains yet: must be a no-op
	l.b.Send(2, cwire(prefix, 1, 1, 80))
	l.b.Flush()
	l.b.BumpGenerations()
	l.b.BumpGenerations()
	l.b.Send(2, cwire(prefix, 1, 1, 81))
	l.b.Flush()
	l.skip(1) // receiver never saw generation 1
	subs, res := l.feed()
	if res.genMiss || len(subs) != 1 {
		t.Fatalf("future-generation full-first frame: %d subs, %+v", len(subs), res)
	}
	// And continuity holds from there.
	l.b.Send(2, cwire(prefix, 1, 1, 82))
	l.b.Flush()
	subs, res = l.feed()
	if res.genMiss || len(subs) != 1 || !bytes.Equal(subs[0], cwire(prefix, 1, 2, 82)) && !bytes.Equal(subs[0], cwire(prefix, 1, 1, 82)) {
		t.Fatalf("continuity after adoption: %d subs, %+v", len(subs), res)
	}
}

// fakeClock is a settable clock for hold tests.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64 { return c.t }

func TestAdaptiveFlushHoldsAndAgesOut(t *testing.T) {
	prefix := []uint64{1, 1}
	sink := &frameSink{}
	b := NewBatcher(sink, 1, 0)
	clk := &fakeClock{}
	b.SetClock(clk.now)

	// Two appends 10µs apart establish a fast cadence for peer 2.
	b.Send(2, cwire(prefix, 1, 1, 1))
	clk.t += 10_000
	b.Send(2, cwire(prefix, 1, 1, 2))
	if n := b.FlushFor(FlushEntryEnd); n != 0 {
		t.Fatalf("fast chain should hold at entry end, emitted %d", n)
	}
	if b.PendingSubs() != 2 || len(sink.calls) != 0 {
		t.Fatalf("held frame lost: pending %d, calls %d", b.PendingSubs(), len(sink.calls))
	}
	if st := b.Stats(); st.Holds != 1 {
		t.Fatalf("hold not counted: %+v", st)
	}
	// More appends keep landing in the held frame.
	clk.t += 10_000
	b.Send(2, cwire(prefix, 1, 1, 3))
	// Past holdMaxNs the frame ages out and the barrier emits it.
	clk.t += holdMaxNs
	if n := b.FlushFor(FlushBarrier); n != 1 {
		t.Fatalf("aged frame must emit, got %d", n)
	}
	if len(sink.calls) != 1 {
		t.Fatalf("expected one coalesced frame, got %d", len(sink.calls))
	}
	// The coalesced frame decodes to all three wires.
	var got int
	NewWalker(true).WalkLink(1, 2, sink.calls[0].data, func([]byte) { got++ })
	if got != 3 {
		t.Fatalf("coalesced frame carries %d subs, want 3", got)
	}
}

func TestAdaptiveFlushNeverHoldsSlowOrUnknownChains(t *testing.T) {
	prefix := []uint64{1, 1}
	sink := &frameSink{}
	b := NewBatcher(sink, 1, 0)
	clk := &fakeClock{}
	b.SetClock(clk.now)

	// First-ever append: cadence unknown, no hold.
	b.Send(2, cwire(prefix, 1, 1, 1))
	if n := b.FlushFor(FlushEntryEnd); n != 1 {
		t.Fatalf("unknown cadence must not hold, emitted %d", n)
	}
	// Slow chain: gaps way past holdGapNs, no hold.
	clk.t += 50_000_000
	b.Send(2, cwire(prefix, 1, 1, 2))
	clk.t += 50_000_000
	b.Send(2, cwire(prefix, 1, 1, 3))
	if n := b.FlushFor(FlushEntryEnd); n != 1 {
		t.Fatalf("slow chain must not hold, emitted %d", n)
	}
}

func TestAdaptiveFlushExplicitAndSizeForceEverything(t *testing.T) {
	prefix := []uint64{1, 1}
	sink := &frameSink{}
	b := NewBatcher(sink, 1, 0)
	clk := &fakeClock{}
	b.SetClock(clk.now)
	b.Send(2, cwire(prefix, 1, 1, 1))
	clk.t += 1000
	b.Send(2, cwire(prefix, 1, 1, 2))
	if n := b.FlushFor(FlushEntryEnd); n != 0 {
		t.Fatalf("expected hold, emitted %d", n)
	}
	if n := b.Flush(); n != 1 {
		t.Fatalf("explicit flush must emit held frames, got %d", n)
	}
	if b.PendingSubs() != 0 {
		t.Fatalf("pending after explicit flush: %d", b.PendingSubs())
	}
}

func TestAdaptiveFlushHoldsOnlySuffix(t *testing.T) {
	// Frame order must survive a partial flush: a held suffix may not
	// overtake an emitted prefix, and the next flush emits held frames
	// before anything newer.
	prefix := []uint64{1, 1}
	sink := &frameSink{}
	b := NewBatcher(sink, 1, 0)
	clk := &fakeClock{}
	b.SetClock(clk.now)
	// Establish fast cadence for peer 3 only.
	b.Send(3, cwire(prefix, 1, 1, 1))
	clk.t += 1000
	b.Send(3, cwire(prefix, 1, 1, 2))
	b.Flush()
	base := len(sink.calls)

	clk.t += 1000
	b.Send(2, cwire(prefix, 1, 1, 3)) // cadence unknown: not holdable
	b.Send(3, cwire(prefix, 1, 1, 4)) // fast: holdable, and newest
	if n := b.FlushFor(FlushBarrier); n != 1 {
		t.Fatalf("prefix emit: got %d frames", n)
	}
	if len(sink.calls) != base+1 || sink.calls[base].to != 2 {
		t.Fatalf("emitted wrong frame: %+v", sink.calls)
	}
	clk.t += holdMaxNs
	if n := b.FlushFor(FlushBarrier); n != 1 {
		t.Fatalf("held frame must age out, got %d", n)
	}
	if sink.calls[base+1].to != 3 {
		t.Fatalf("held frame went to %d, want 3", sink.calls[base+1].to)
	}
	// The walker still decodes the reordered-in-time but in-order chain.
	w := NewWalker(true)
	for _, c := range sink.calls {
		if res := w.walkLink(1, c.to, c.data, func([]byte) {}); res.genMiss {
			t.Fatalf("per-chain order broken: %+v", res)
		}
	}
}

func FuzzXFrameWalkLink(f *testing.F) {
	prefix := []uint64{7, 0xDEAD}
	mk := func(wires ...[]byte) []byte {
		sink := &frameSink{}
		b := NewBatcher(sink, 1, 0)
		for _, w := range wires {
			b.Send(2, w)
		}
		b.Flush()
		return sink.calls[0].data
	}
	f.Add(mk(cwire(prefix, 1, 0, 5, 0x01), cwire(prefix, 1, 0, 6)), false)
	f.Add(append([]byte{FrameMagic, 0x00, 0x01, 0x02}, subRun, 4, 1, 'X', 6, 0), true)
	f.Add([]byte{FrameMagic, 0x01, 0xFF, 0x01}, false)
	f.Add(appendResync(nil, true, 77), true)
	f.Add([]byte{FrameMagic, 0x80}, false)
	// n = 0 prefix subs (frame-sized wires): first in a frame in
	// continuity with the seeded mirror, mid-frame after a full sub, and
	// first in a frame with no mirror to extend.
	verbatim := cwire(prefix, 1, 0, 10, bytes.Repeat([]byte{0x5A}, 40)...)
	f.Add(vSub([]byte{FrameMagic, 0x00, 0x01, 0x02}, verbatim), true)
	f.Add(vSub(fullSub(xhdr(), cwire(prefix, 1, 0, 9)), verbatim), false)
	f.Add(vSub([]byte{FrameMagic, 0x00, 0x01, 0x02}, verbatim), false)
	f.Fuzz(func(t *testing.T, data []byte, seeded bool) {
		for _, stable := range []bool{true, false} {
			if _, _, _, off, ok := parseXHeader(data); ok && off < len(data) && data[off] != subFull {
				// No mirror: a dependent first sub decoded with nothing
				// seeded surfaces as garbage, the tail from its flag byte
				// on (WalkLink parks such a frame, then asks for a resync).
				var got [][]byte
				w := NewWalker(stable)
				n, _, _, clean := w.walkSubs(data, off, nil, func(sub []byte) { got = append(got, sub) })
				if clean || n != 1 || !bytes.Equal(got[0], data[off:]) {
					t.Fatalf("unseeded dependent frame %x: clean %v, %d subs", data, clean, n)
				}
			}
			w := NewWalker(stable)
			if seeded {
				// Pre-seed a mirror so continuity/stale paths run too.
				seed := mk(cwire(prefix, 1, 0, 9))
				w.WalkLink(1, 2, seed, func([]byte) {})
			}
			subs := 0
			resync, _ := w.WalkLink(1, 2, data, func([]byte) { subs++ })
			// Whatever arrived, the walker surfaces subs or garbage, or
			// parks the frame — it never panics — and anything that is not
			// a frame (retired magics included) passes through whole and
			// unanswered.
			if !IsFrame(data) && (subs != 1 || resync != nil) {
				t.Fatalf("non-frame %x: %d subs, resync %x", data, subs, resync)
			}
			w.WalkLink(1, 2, data, func([]byte) {}) // mirror state survives reuse
		}
	})
}

// FuzzXFrameRoundTrip drives arbitrary wires through the cross-frame
// encoder and a mirror-keeping walker: across any frame boundary the
// walker must reproduce the original wires byte for byte.
func FuzzXFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint16(3), uint64(4), int64(5), int64(6), []byte{0xAA}, byte(2))
	f.Add(uint64(0), uint64(0), uint16(0), uint64(0), int64(1), int64(-1), []byte{}, byte(1))
	f.Fuzz(func(t *testing.T, p0, p1 uint64, id uint16, sender uint64, seq1, seq2 int64, rest []byte, split byte) {
		if len(rest) > 256 {
			rest = rest[:256]
		}
		prefix := []uint64{p0, p1}
		wires := [][]byte{
			cwire(prefix, id, sender, seq1, rest...),
			cwire(prefix, id, sender, seq2, rest...),
			cwire(prefix, id+1, sender+1, seq1, rest...),
			append([]byte{0x01}, rest...),
			append([]byte{0x01}, rest...),
		}
		l := newXLink(t, 1, 2)
		for i, w := range wires {
			l.b.Send(2, w)
			if int(split)%len(wires) == i {
				l.b.Flush() // force a frame boundary mid-stream
			}
		}
		l.b.Flush()
		got, res := l.feed()
		if res.genMiss || res.staleGen {
			t.Fatalf("lossless chain reported %+v", res)
		}
		wantSubs(t, got, wires)
	})
}

// productionBatcher configures a Batcher the way core.Member does: with
// the owner's clock.
func productionBatcher(sink BatchSink, from event.Addr, now func() int64) *Batcher {
	b := NewBatcher(sink, from, 0)
	b.SetClock(now)
	return b
}
