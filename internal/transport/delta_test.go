package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// cwire builds an epoch-prefixed compressed wire image, the shape the
// delta coder recognizes (see parseSub).
func cwire(prefix []uint64, id uint16, sender uint64, seq int64, rest ...byte) []byte {
	var w []byte
	for _, p := range prefix {
		w = binary.AppendUvarint(w, p)
	}
	w = append(w, WireCompressed, byte(id), byte(id>>8))
	w = binary.AppendUvarint(w, sender)
	w = binary.AppendVarint(w, seq)
	return append(w, rest...)
}

// deltaFrameOf runs wires through a Batcher and returns the one frame
// it produces (all wires must fit one cast frame).
func deltaFrameOf(t *testing.T, nPrefix int, wires ...[]byte) []byte {
	t.Helper()
	frame, n := mustDeltaFrame(nPrefix, wires...)
	if n != 1 {
		t.Fatalf("wires spread over %d frames, want 1", n)
	}
	return frame
}

func mustDeltaFrame(nPrefix int, wires ...[]byte) ([]byte, int) {
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 0)
	b.EnableCrossFrame(nPrefix)
	for _, w := range wires {
		b.Cast(w)
	}
	b.Flush()
	return sink.calls[0].data, len(sink.calls)
}

func TestDeltaRoundTripMixedWires(t *testing.T) {
	prefix := []uint64{7, 0xDEADBEEF}
	wires := [][]byte{
		cwire(prefix, 12, 3, 100, 0xAA, 0xBB),      // full (first in frame)
		cwire(prefix, 12, 3, 101, 0xCC),            // delta: everything elided
		cwire(prefix, 12, 3, 101),                  // delta: zero seq delta, empty rest
		cwire(prefix, 12, 5, 99, 0x01),             // delta: explicit sender
		cwire(prefix, 13, 5, 100),                  // delta: explicit stack id
		cwire([]uint64{8, 0xDEADBEEF}, 13, 5, 101), // delta: explicit epoch
		{0x01, 0x02, 0x03},                         // opaque (full-format image): full sub
		cwire(prefix, 12, 3, 200, 0xEE),            // full again (opaque predecessor)
		cwire(prefix, 12, 3, math.MinInt64, 0xFF),  // delta with a huge negative jump
		{}, // empty wire: full sub
	}
	frame := deltaFrameOf(t, 2, wires...)
	if !IsFrame(frame) {
		t.Fatalf("frame magic = %#x, want FrameMagic", frame[0])
	}
	for _, mode := range []bool{true, false} {
		got := collectWalk(t, NewFrameWalker(2, mode), frame)
		if len(got) != len(wires) {
			t.Fatalf("stable=%t: got %d subs, want %d", mode, len(got), len(wires))
		}
		for i := range wires {
			if !bytes.Equal(got[i], wires[i]) {
				t.Fatalf("stable=%t: sub %d = %x, want %x", mode, i, got[i], wires[i])
			}
		}
	}
}

func TestDeltaSavesBytes(t *testing.T) {
	prefix := []uint64{3, 0x123456789A}
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 0)
	b.EnableCrossFrame(2)
	var wires [][]byte
	for i := 0; i < 10; i++ {
		wires = append(wires, cwire(prefix, 42, 6, int64(1000+i), 0x11, 0x22, 0x33, 0x44))
		b.Cast(wires[i])
	}
	b.Flush()
	delta := sink.calls[0].data
	st := b.Stats()
	// The yardstick is what these wires cost as unbatched classic frames:
	// magic + uvarint length + wire, each.
	if want := int64(len(wires) * (2 + len(wires[0]))); st.ClassicBytes != want {
		t.Fatalf("ClassicBytes = %d, want %d", st.ClassicBytes, want)
	}
	// 9 of 10 subs shrink from ~2+len(wire) bytes to flag+delta+restlen+
	// rest: the elided header is prefix(1+5)+magic/id(3)+sender(1)+seq(2),
	// so the frame should be well under 60% of the yardstick here.
	if ratio := float64(len(delta)) / float64(st.ClassicBytes); ratio > 0.6 {
		t.Fatalf("frame/classic = %.2f, want <= 0.6 (frame=%dB classic=%dB)", ratio, len(delta), st.ClassicBytes)
	}
	wantSubs(t, collectWalk(t, NewFrameWalker(2, true), delta), wires)
}

func TestDeltaStatsCountDeltaSubs(t *testing.T) {
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 0)
	b.EnableCrossFrame(0)
	b.Cast(cwire(nil, 1, 0, 10))
	b.Cast(cwire(nil, 1, 0, 11))
	b.Cast(cwire(nil, 1, 0, 12))
	b.Cast([]byte{0x01, 0xFF}) // opaque
	b.Flush()
	st := b.Stats()
	if st.SubPackets != 4 || st.DeltaSubs != 2 {
		t.Fatalf("stats = %+v, want 4 subs / 2 delta", st)
	}
	if st.FrameBytes != int64(len(sink.calls[0].data)) {
		t.Fatalf("FrameBytes = %d, frame is %dB", st.FrameBytes, len(sink.calls[0].data))
	}
}

func TestDeltaSeqnoOverflowFallsBackToFull(t *testing.T) {
	wires := [][]byte{
		cwire(nil, 9, 1, math.MinInt64),
		cwire(nil, 9, 1, math.MaxInt64), // delta overflows: must not field-delta
		cwire(nil, 9, 1, math.MaxInt64-1),
	}
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 0)
	b.EnableCrossFrame(0)
	for _, w := range wires {
		b.Cast(w)
	}
	b.Flush()
	// The overflowing sub falls back to the shared-prefix form (the two
	// wires share the 4-byte header before the seqno varints diverge);
	// only the third sub field-deltas against the second.
	if st := b.Stats(); st.DeltaSubs != 1 || st.PrefixSubs != 1 {
		t.Fatalf("stats = %+v, want 1 delta / 1 prefix (overflowing sub must fall back)", st)
	}
	got := collectWalk(t, NewFrameWalker(0, true), sink.calls[0].data)
	for i := range wires {
		if !bytes.Equal(got[i], wires[i]) {
			t.Fatalf("sub %d = %x, want %x", i, got[i], wires[i])
		}
	}
}

func TestWalkDeltaAfterOpaqueSubIsGarbage(t *testing.T) {
	// A field-delta sub needs a parsed base; after an opaque full sub
	// there is none: the tail surfaces as one garbage sub (stray
	// accounting downstream), no panic.
	tail := []byte{subIsDelta}
	tail = binary.AppendVarint(tail, 1)
	tail = binary.AppendUvarint(tail, 0)
	frame := append(fullSub(xhdr(), []byte("opaque")), tail...)
	got := collectWalk(t, NewFrameWalker(2, true), frame)
	wantSubs(t, got, [][]byte{[]byte("opaque"), tail})
}

// TestWalkNonFullFirstSubParksOnColdLink: a frame whose first sub needs
// a predecessor the link never saw is not garbage — the predecessor may
// still be in flight — so it surfaces nothing and waits in the stash.
func TestWalkNonFullFirstSubParksOnColdLink(t *testing.T) {
	for _, flag := range []byte{subIsDelta, subPrefix} {
		frame := xhdr(flag, 0x04, 0x00)
		res := NewFrameWalker(2, true).walkLink(1, 2, frame, func(sub []byte) {
			t.Fatalf("flag %#x: baseless first sub surfaced %x", flag, sub)
		})
		if !res.stashed || res.genMiss || res.staleGen || res.subs != 0 {
			t.Fatalf("flag %#x: verdict %+v, want stashed only", flag, res)
		}
	}
}

func TestWalkDeltaUnknownFlagBits(t *testing.T) {
	wire := cwire(nil, 1, 0, 5)
	frame := deltaFrameOf(t, 0, wire)
	// Append a sub whose flag has a reserved bit set.
	bad := append(append([]byte(nil), frame...), 0x40, 0x01, 0x02)
	got := collectWalk(t, NewFrameWalker(0, true), bad)
	if len(got) != 2 {
		t.Fatalf("got %d subs, want 2 (good + garbage)", len(got))
	}
	if !bytes.Equal(got[0], wire) || !bytes.Equal(got[1], []byte{0x40, 0x01, 0x02}) {
		t.Fatalf("subs = %x", got)
	}
	// deltaEpoch or the suffix bit without the delta bit is just as
	// unknown, and so is the prefix flag combined with any delta bit.
	for _, flag := range []byte{deltaEpoch, deltaSuffix, subPrefix | subIsDelta} {
		bad2 := append(append([]byte(nil), frame...), flag)
		if got := collectWalk(t, NewFrameWalker(0, true), bad2); len(got) != 2 || !bytes.Equal(got[1], []byte{flag}) {
			t.Fatalf("flag %#x not treated as garbage: %x", flag, got)
		}
	}
}

// TestPrefixDeltaRoundTripOpaqueWires: wires the field delta cannot
// parse still compress when consecutive ones repeat their leading bytes
// — the ack/gossip case — and come back byte-exact.
func TestPrefixDeltaRoundTripOpaqueWires(t *testing.T) {
	wires := [][]byte{
		[]byte("ack:view7:member3:seq100"),
		[]byte("ack:view7:member3:seq101"),
		[]byte("ack:view7:member3:seq102"),
		[]byte("gossip:view7:digest-aa"),
		[]byte("gossip:view7:digest-ab"),
	}
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 0)
	b.EnableCrossFrame(0)
	for _, w := range wires {
		b.Cast(w)
	}
	b.Flush()
	frame := sink.calls[0].data
	var classic int
	for _, w := range wires {
		classic += 1 + 1 + len(w) // flagless classic sub: uvarint len + bytes
	}
	if len(frame) >= classic {
		t.Fatalf("prefix delta saved nothing: frame %dB, classic ~%dB", len(frame), classic)
	}
	// The two acks after the first and the second gossip wire share
	// prefixes; the first gossip wire shares nothing with the last ack
	// and rides full.
	if st := b.Stats(); st.PrefixSubs != 3 || st.DeltaSubs != 0 {
		t.Fatalf("stats = %+v, want 3 prefix subs", st)
	}
	for _, mode := range []bool{true, false} {
		got := collectWalk(t, NewFrameWalker(0, mode), frame)
		if len(got) != len(wires) {
			t.Fatalf("stable=%t: got %d subs, want %d", mode, len(got), len(wires))
		}
		for i := range wires {
			if !bytes.Equal(got[i], wires[i]) {
				t.Fatalf("stable=%t: sub %d = %q, want %q", mode, i, got[i], wires[i])
			}
		}
	}
}

// TestPrefixDeltaIdenticalWire: a wire identical to its predecessor is
// all prefix — flag, shared length, zero rest.
func TestPrefixDeltaIdenticalWire(t *testing.T) {
	w := []byte("identical-wire-image")
	frame := deltaFrameOf(t, 0, w, w)
	got := collectWalk(t, NewFrameWalker(0, true), frame)
	if len(got) != 2 || !bytes.Equal(got[0], w) || !bytes.Equal(got[1], w) {
		t.Fatalf("subs = %q", got)
	}
	// header + full sub (1+1+20) + prefix sub (1+1+1)
	if want := len(xhdr()) + (2 + len(w)) + 3; len(frame) != want {
		t.Fatalf("frame is %dB, want %d", len(frame), want)
	}
}

func TestWalkPrefixLongerThanBaseIsGarbage(t *testing.T) {
	wire := []byte("short")
	frame := deltaFrameOf(t, 0, wire)
	tail := []byte{subPrefix}
	tail = binary.AppendUvarint(tail, uint64(len(wire)+1)) // prefix overruns base
	tail = binary.AppendUvarint(tail, 0)
	bad := append(append([]byte(nil), frame...), tail...)
	got := collectWalk(t, NewFrameWalker(0, true), bad)
	if len(got) != 2 || !bytes.Equal(got[1], tail) {
		t.Fatalf("oversized prefix should surface as garbage: %x", got)
	}
}

func TestWalkPrefixRestOverrunIsGarbage(t *testing.T) {
	frame := deltaFrameOf(t, 0, []byte("base-wire"))
	tail := []byte{subPrefix}
	tail = binary.AppendUvarint(tail, 4)
	tail = binary.AppendUvarint(tail, 100) // declares 100 bytes, none follow
	bad := append(append([]byte(nil), frame...), tail...)
	got := collectWalk(t, NewFrameWalker(0, true), bad)
	if len(got) != 2 || !bytes.Equal(got[1], tail) {
		t.Fatalf("prefix rest overrun should surface as garbage: %x", got)
	}
}

func TestWalkDeltaSeqOverflowIsGarbage(t *testing.T) {
	frame := deltaFrameOf(t, 0, cwire(nil, 1, 0, math.MaxInt64))
	tail := []byte{subIsDelta}
	tail = binary.AppendVarint(tail, 1) // MaxInt64 + 1 overflows
	tail = binary.AppendUvarint(tail, 0)
	bad := append(append([]byte(nil), frame...), tail...)
	got := collectWalk(t, NewFrameWalker(0, true), bad)
	if len(got) != 2 || !bytes.Equal(got[1], tail) {
		t.Fatalf("overflowing delta should surface as garbage: %x", got)
	}
}

func TestWalkDeltaRestLengthOverrun(t *testing.T) {
	frame := deltaFrameOf(t, 0, cwire(nil, 1, 0, 7))
	tail := []byte{subIsDelta}
	tail = binary.AppendVarint(tail, 1)
	tail = binary.AppendUvarint(tail, 100) // declares 100 bytes, none follow
	bad := append(append([]byte(nil), frame...), tail...)
	got := collectWalk(t, NewFrameWalker(0, true), bad)
	if len(got) != 2 || !bytes.Equal(got[1], tail) {
		t.Fatalf("rest-length overrun should surface as garbage: %x", got)
	}
}

func TestWalkDeltaTruncationsNeverPanic(t *testing.T) {
	// Every prefix of a real multi-sub delta frame must decode without
	// panicking, and whatever does not decode must still be surfaced
	// (no silent loss of the tail).
	prefix := []uint64{2, 99}
	frame := deltaFrameOf(t, 2,
		cwire(prefix, 4, 1, 50, 0xA1, 0xA2, 0xA3),
		cwire(prefix, 4, 1, 51, 0xB1),
		cwire(prefix, 4, 2, 52, 0xC1, 0xC2),
	)
	for cut := 1; cut < len(frame); cut++ {
		// A truncated frame surfaces strictly fewer clean subs plus at most
		// one garbage tail; the invariant held everywhere is "no panic and
		// the walker terminates", plus full fidelity at the uncut length,
		// checked below. A fresh link per cut: a clean prefix adopts the
		// mirror, and the next cut must not read as that frame's duplicate.
		if got := collectWalk(t, NewFrameWalker(2, true), frame[:cut]); len(got) > 3 {
			t.Fatalf("cut %d surfaced %d subs from a 3-sub frame", cut, len(got))
		}
	}
	got := collectWalk(t, NewFrameWalker(2, true), frame)
	if len(got) != 3 {
		t.Fatalf("uncut frame: got %d subs, want 3", len(got))
	}
}

func TestFrameWalkerStableSubsOutliveWalk(t *testing.T) {
	prefix := []uint64{1, 11}
	wires := [][]byte{
		cwire(prefix, 2, 0, 10, 0x01),
		cwire(prefix, 2, 0, 11, 0x02),
		cwire(prefix, 2, 0, 12, 0x03),
	}
	frame := deltaFrameOf(t, 2, wires...)
	w := NewFrameWalker(2, true)
	var subs [][]byte
	w.WalkLink(1, 2, frame, func(sub []byte) { subs = append(subs, sub) }) // retained, not copied
	// A second walk must not scribble over the retained subs.
	w.WalkLink(1, 2, frame, func([]byte) {})
	for i := range wires {
		if !bytes.Equal(subs[i], wires[i]) {
			t.Fatalf("retained sub %d corrupted by later walk: %x", i, subs[i])
		}
	}
}

// TestStableWalkOneBufferPerFrame: a stable-mode walk sizes its
// reconstruction buffer from the frame before it decodes — one
// allocation however many delta, prefix, prefix+suffix and run subs
// follow, and outBound really bounds what they reconstruct to.
func TestStableWalkOneBufferPerFrame(t *testing.T) {
	prefix := []uint64{1, 1 << 40}
	var wires [][]byte
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 6; i++ {
		wires = append(wires, vsyncCast(int64(20+i), freshPayload(rng, 32)))
	}
	for i := 0; i < 12; i++ {
		wires = append(wires, cwire(prefix, 3, uint64(i/6), int64(1000+i), bytes.Repeat([]byte{byte(i)}, 40)...))
	}
	for i := 0; i < 4; i++ {
		opaque := append([]byte("opaque-control-wire-"), byte(i))
		wires = append(wires, append(opaque, "-with-a-shared-tail"...))
	}
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 0)
	b.EnableCrossFrame(2)
	for _, w := range wires {
		b.Cast(w)
	}
	b.Flush()
	if len(sink.calls) != 1 || b.Stats().RunSubs != 5 {
		t.Fatalf("%d frames, stats %+v: want one frame with 5 run subs", len(sink.calls), b.Stats())
	}
	frame := sink.calls[0].data
	_, _, _, off, ok := parseXHeader(frame)
	if !ok {
		t.Fatal("frame header does not parse")
	}
	w := NewFrameWalker(2, true)
	var got [][]byte
	walk := func() {
		w.base = subMeta{}
		got = got[:0]
		w.walkSubs(frame, off, nil, func(sub []byte) { got = append(got, sub) })
	}
	walk()
	wantSubs(t, got, wires)
	rebuilt := 0
	for _, sub := range got[1:] { // the first sub of a cold frame is full: surfaced in place
		rebuilt += len(sub)
	}
	if bound := w.outBound(frame, off, 0); bound < rebuilt || bound > 2*rebuilt {
		t.Fatalf("outBound = %d for %d reconstructed bytes", bound, rebuilt)
	}
	if allocs := testing.AllocsPerRun(100, walk); allocs != 1 {
		t.Fatalf("stable walk of %d subs allocates %.1f times, want 1", len(wires), allocs)
	}
}

func TestDeltaBatcherRecyclesBuffers(t *testing.T) {
	sink := &discardSink{}
	b := NewBatcher(sink, 0, 0)
	b.EnableCrossFrame(2)
	prefix := []uint64{1, 77}
	wa := cwire(prefix, 3, 0, 100, 0xAA, 0xBB, 0xCC, 0xDD)
	wb := cwire(prefix, 3, 0, 101, 0xEE, 0xFF, 0x11, 0x22)
	for round := 0; round < 3; round++ {
		b.Cast(wa)
		b.Cast(wb)
		b.Flush()
	}
	allocs := testing.AllocsPerRun(100, func() {
		b.Cast(wa)
		b.Cast(wb)
		b.Flush()
	})
	if allocs > 0 {
		t.Fatalf("steady-state delta flush allocates %.1f/op, want 0", allocs)
	}
}

func TestDeltaWalkerScratchModeNoAllocs(t *testing.T) {
	prefix := []uint64{1, 77}
	var wires [][]byte
	for i := 0; i < 8; i++ {
		wires = append(wires, cwire(prefix, 3, 0, int64(100+i), 0xAA, 0xBB))
	}
	frame := deltaFrameOf(t, 2, wires...)
	w := NewFrameWalker(2, false)
	w.WalkLink(1, 2, frame, func([]byte) {}) // grow the scratch once
	n := 0
	fn := func([]byte) { n++ }
	allocs := testing.AllocsPerRun(100, func() { w.WalkLink(1, 2, frame, fn) })
	if allocs > 0 {
		t.Fatalf("scratch-mode walk allocates %.1f/op, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("walker surfaced nothing")
	}
}

func FuzzFrameWalker(f *testing.F) {
	prefix := []uint64{7, 0xDEAD}
	f.Add(xhdr(subIsDelta, 0x02, 0x00))
	seed, _ := mustDeltaFrame(2, cwire(prefix, 1, 0, 5, 0x01), cwire(prefix, 1, 0, 6))
	f.Add(seed)
	f.Add(xhdr(subFull, 0x05, 'h', 'i'))
	f.Add(xhdr(0xFF, 0x80, 0x80))
	prefixSeed, _ := mustDeltaFrame(0, []byte("opaque-one"), []byte("opaque-two"))
	f.Add(prefixSeed)
	f.Add(xhdr(subPrefix, 0x04, 0x00))
	f.Add([]byte{FrameMagic, 0x01, 0x03, 0x02, subFull, 0x01, 0xAB})
	for _, legacy := range legacyDatagrams() {
		f.Add(legacy)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, nPrefix := range []int{0, 2} {
			for _, stable := range []bool{true, false} {
				w := NewFrameWalker(nPrefix, stable)
				n := 0
				w.WalkLink(1, 2, data, func([]byte) { n++ })
				if !IsFrame(data) && n != 1 {
					t.Fatalf("non-frame surfaced %d subs, want itself", n)
				}
				w.WalkLink(1, 2, data, func([]byte) {}) // walker state survives reuse
			}
		}
	})
}

// FuzzDeltaRoundTrip drives arbitrary field values through encode and
// decode: whatever the batcher emits, the walker must reproduce the
// original wires byte for byte.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint16(3), uint64(4), int64(5), int64(6), []byte{0xAA})
	f.Add(uint64(0), uint64(0), uint16(0), uint64(0), int64(math.MaxInt64), int64(math.MinInt64), []byte{})
	f.Fuzz(func(t *testing.T, p0, p1 uint64, id uint16, sender uint64, seq1, seq2 int64, rest []byte) {
		if len(rest) > 256 {
			rest = rest[:256]
		}
		prefix := []uint64{p0, p1}
		// Opaque pair: exercises the shared-prefix forms (and the full
		// fallback when rest is too short to share 4 bytes). The second
		// differs in its middle byte, a changed field, and in its last, a
		// fresh tail, so the run form can pay; with the tail equal the
		// prefix+suffix form ties with it and wins.
		opaque := append([]byte{0x01}, rest...)
		changed := append([]byte(nil), opaque...)
		changed[len(changed)/2]++
		changed[len(changed)-1]--
		wires := [][]byte{
			cwire(prefix, id, sender, seq1, rest...),
			cwire(prefix, id, sender, seq2, rest...),
			cwire(prefix, id+1, sender+1, seq1, rest...),
			opaque,
			changed,
		}
		sink := &frameSink{}
		b := NewBatcher(sink, 0, 1<<20)
		b.EnableCrossFrame(2)
		for _, w := range wires {
			b.Cast(w)
		}
		b.Flush()
		if len(sink.calls) != 1 {
			t.Fatalf("expected one frame, got %d", len(sink.calls))
		}
		wantSubs(t, collectWalk(t, NewFrameWalker(2, true), sink.calls[0].data), wires)
	})
}
