package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// cwire builds an epoch-prefixed compressed wire image, the shape of a
// member's data wire: the sub coder sees only its bytes.
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
func deltaFrameOf(t *testing.T, wires ...[]byte) []byte {
	t.Helper()
	frame, n := mustDeltaFrame(wires...)
	if n != 1 {
		t.Fatalf("wires spread over %d frames, want 1", n)
	}
	return frame
}

func mustDeltaFrame(wires ...[]byte) ([]byte, int) {
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 0)
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
		cwire(prefix, 12, 3, 101, 0xCC),            // the header up to the seqno shared
		cwire(prefix, 12, 3, 101),                  // a prefix of its predecessor
		cwire(prefix, 12, 5, 99, 0x01),             // a changed sender
		cwire(prefix, 13, 5, 100),                  // a changed stack id
		cwire([]uint64{8, 0xDEADBEEF}, 13, 5, 101), // a changed epoch: shares nothing, full
		{0x01, 0x02, 0x03},                         // opaque (full-format image): full sub
		cwire(prefix, 12, 3, 200, 0xEE),            // full again (opaque predecessor)
		cwire(prefix, 12, 3, math.MinInt64, 0xFF),  // a ten-byte seqno
		{}, // empty wire: full sub
	}
	frame := deltaFrameOf(t, wires...)
	if !IsFrame(frame) {
		t.Fatalf("frame magic = %#x, want FrameMagic", frame[0])
	}
	for _, mode := range []bool{true, false} {
		got := collectWalk(t, NewWalker(mode), frame)
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
	// 9 of 10 subs shrink from 2+len(wire) bytes to a prefix+suffix sub:
	// the epoch prefix, magic, id, sender and the seqno's low byte are
	// shared, so only the seqno's changed byte rides, and the frame should
	// be well under 60% of the yardstick here.
	if ratio := float64(len(delta)) / float64(st.ClassicBytes); ratio > 0.6 {
		t.Fatalf("frame/classic = %.2f, want <= 0.6 (frame=%dB classic=%dB)", ratio, len(delta), st.ClassicBytes)
	}
	wantSubs(t, collectWalk(t, NewWalker(true), delta), wires)
}

// TestDeltaStatsCountDeltaSubs pins the names the benchmark module
// still calls: EnableCrossFrame only flushes, NewFrameWalker ignores its
// prefix count, and DeltaSubs reads 0 while PrefixSubs counts every sub
// encoded against its predecessor.
func TestDeltaStatsCountDeltaSubs(t *testing.T) {
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 0)
	wires := [][]byte{cwire(nil, 1, 0, 10), cwire(nil, 1, 0, 11), cwire(nil, 1, 0, 12), {0x01, 0xFF}}
	for _, w := range wires {
		b.Cast(w)
	}
	b.EnableCrossFrame(EpochPrefixUvarints)
	if len(sink.calls) != 1 || b.Pending() != 0 {
		t.Fatalf("EnableCrossFrame left %d frames pending, %d emitted", b.Pending(), len(sink.calls))
	}
	st := b.Stats()
	if st.SubPackets != 4 || st.DeltaSubs != 0 || st.PrefixSubs != 2 {
		t.Fatalf("stats = %+v, want 4 subs / 0 delta / 2 prefix", st)
	}
	if st.FrameBytes != int64(len(sink.calls[0].data)) {
		t.Fatalf("FrameBytes = %d, frame is %dB", st.FrameBytes, len(sink.calls[0].data))
	}
	wantSubs(t, collectWalk(t, NewFrameWalker(EpochPrefixUvarints, true), sink.calls[0].data), wires)
}

// TestWalkDeltaAfterOpaqueSubIsGarbage: a sub in the retired field-delta
// form (flag 0x01, seqno delta 1, no rest) decodes against nothing. Mid
// frame it surfaces as the frame's garbage tail; opening a frame in
// continuity with the mirror it does the same, and the broken chain asks
// for a resync.
func TestWalkDeltaAfterOpaqueSubIsGarbage(t *testing.T) {
	tail := []byte{0x01, 0x02, 0x00}
	frame := append(fullSub(xhdr(), []byte("opaque")), tail...)
	wantSubs(t, collectWalk(t, NewWalker(true), frame), [][]byte{[]byte("opaque"), tail})

	w := NewWalker(true)
	collectWalk(t, w, fullSub(xhdr(), cwire(nil, 1, 0, 5)))
	next := append([]byte{FrameMagic, 0x00, 0x01, 0x02}, tail...)
	var got [][]byte
	res := w.walkLink(1, 2, next, func(sub []byte) { got = append(got, sub) })
	if !res.genMiss || len(got) != 1 || !bytes.Equal(got[0], tail) {
		t.Fatalf("continuity frame opened by 0x01: subs %x, verdict %+v", got, res)
	}
}

// TestWalkNonFullFirstSubParksOnColdLink: a frame whose first sub needs
// a predecessor the link never saw is not garbage — the predecessor may
// still be in flight — so it surfaces nothing and waits in the stash.
func TestWalkNonFullFirstSubParksOnColdLink(t *testing.T) {
	for _, flag := range []byte{subPrefix, subPrefixSuffix, subRun} {
		frame := xhdr(flag, 0x04, 0x00)
		res := NewWalker(true).walkLink(1, 2, frame, func(sub []byte) {
			t.Fatalf("flag %#x: baseless first sub surfaced %x", flag, sub)
		})
		if !res.stashed || res.genMiss || res.staleGen || res.subs != 0 {
			t.Fatalf("flag %#x: verdict %+v, want stashed only", flag, res)
		}
	}
}

// TestWalkDeltaUnknownFlagBits: the grammar has four flag bytes. Every
// other value — the retired field delta's 0x01 and its combinations up
// to 0x2F among them — is unknown: after a good sub it surfaces the
// frame's tail from its flag byte on as exactly one garbage sub, in
// stable and scratch mode alike, and nothing panics.
func TestWalkDeltaUnknownFlagBits(t *testing.T) {
	wire := cwire(nil, 1, 0, 5)
	frame := deltaFrameOf(t, wire)
	for flag := 0; flag < 256; flag++ {
		switch flag {
		case subFull, subPrefix, subPrefixSuffix, subRun:
			continue
		}
		// The tail a field delta of seqno +1 with no rest would be.
		tail := []byte{byte(flag), 0x02, 0x00}
		bad := append(append([]byte(nil), frame...), tail...)
		for _, stable := range []bool{true, false} {
			if got := collectWalk(t, NewWalker(stable), bad); len(got) != 2 || !bytes.Equal(got[0], wire) || !bytes.Equal(got[1], tail) {
				t.Fatalf("flag %#x, stable=%v: subs %x, want the good sub and the tail as garbage", flag, stable, got)
			}
		}
	}
}

// TestPrefixDeltaRoundTripOpaqueWires: wires of no image format at all
// compress when consecutive ones repeat their leading bytes — the
// ack/gossip case — and come back byte-exact.
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
		got := collectWalk(t, NewWalker(mode), frame)
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
	frame := deltaFrameOf(t, w, w)
	got := collectWalk(t, NewWalker(true), frame)
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
	frame := deltaFrameOf(t, wire)
	tail := []byte{subPrefix}
	tail = binary.AppendUvarint(tail, uint64(len(wire)+1)) // prefix overruns base
	tail = binary.AppendUvarint(tail, 0)
	bad := append(append([]byte(nil), frame...), tail...)
	got := collectWalk(t, NewWalker(true), bad)
	if len(got) != 2 || !bytes.Equal(got[1], tail) {
		t.Fatalf("oversized prefix should surface as garbage: %x", got)
	}
}

func TestWalkPrefixRestOverrunIsGarbage(t *testing.T) {
	frame := deltaFrameOf(t, []byte("base-wire"))
	tail := []byte{subPrefix}
	tail = binary.AppendUvarint(tail, 4)
	tail = binary.AppendUvarint(tail, 100) // declares 100 bytes, none follow
	bad := append(append([]byte(nil), frame...), tail...)
	got := collectWalk(t, NewWalker(true), bad)
	if len(got) != 2 || !bytes.Equal(got[1], tail) {
		t.Fatalf("prefix rest overrun should surface as garbage: %x", got)
	}
}

// TestWalkDeltaSeqOverflowIsGarbage: the bytes of a retired field delta
// whose seqno delta would overflow its base (MaxInt64 + 1) surface as
// garbage, in stable and scratch mode alike.
func TestWalkDeltaSeqOverflowIsGarbage(t *testing.T) {
	frame := deltaFrameOf(t, cwire(nil, 1, 0, math.MaxInt64))
	tail := []byte{0x01}
	tail = binary.AppendVarint(tail, 1) // MaxInt64 + 1 overflows
	tail = binary.AppendUvarint(tail, 0)
	bad := append(append([]byte(nil), frame...), tail...)
	for _, stable := range []bool{true, false} {
		if got := collectWalk(t, NewWalker(stable), bad); len(got) != 2 || !bytes.Equal(got[1], tail) {
			t.Fatalf("stable=%v: overflowing delta should surface as garbage: %x", stable, got)
		}
	}
}

// TestWalkDeltaRestLengthOverrun: the bytes of a retired field delta
// whose rest length overruns the frame surface as garbage, in stable and
// scratch mode alike.
func TestWalkDeltaRestLengthOverrun(t *testing.T) {
	frame := deltaFrameOf(t, cwire(nil, 1, 0, 7))
	tail := []byte{0x01}
	tail = binary.AppendVarint(tail, 1)
	tail = binary.AppendUvarint(tail, 100) // declares 100 bytes, none follow
	bad := append(append([]byte(nil), frame...), tail...)
	for _, stable := range []bool{true, false} {
		if got := collectWalk(t, NewWalker(stable), bad); len(got) != 2 || !bytes.Equal(got[1], tail) {
			t.Fatalf("stable=%v: rest-length overrun should surface as garbage: %x", stable, got)
		}
	}
}

func TestWalkDeltaTruncationsNeverPanic(t *testing.T) {
	// Every prefix of a real multi-sub delta frame must decode without
	// panicking, and whatever does not decode must still be surfaced
	// (no silent loss of the tail).
	prefix := []uint64{2, 99}
	frame := deltaFrameOf(t,
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
		if got := collectWalk(t, NewWalker(true), frame[:cut]); len(got) > 3 {
			t.Fatalf("cut %d surfaced %d subs from a 3-sub frame", cut, len(got))
		}
	}
	got := collectWalk(t, NewWalker(true), frame)
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
	frame := deltaFrameOf(t, wires...)
	w := NewWalker(true)
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

// TestStableWalkOneBufferPerFrame: a stable-mode walk sizes its rebuild
// buffer from the frame before it decodes — one allocation however many
// prefix, prefix+suffix and run subs follow — and outBound is exact: for
// every frame of a run-sub stream, seeded with the mirror's last sub, it
// equals the bytes the walk rebuilds.
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
	frame, n := mustDeltaFrame(wires...)
	if n != 1 {
		t.Fatalf("wires spread over %d frames, want 1", n)
	}
	_, _, _, off, _ := parseXHeader(frame)
	w := NewWalker(true)
	var got [][]byte
	walk := func() {
		got = got[:0]
		w.walkSubs(frame, off, nil, func(sub []byte) { got = append(got, sub) })
	}
	walk()
	wantSubs(t, got, wires)
	if allocs := testing.AllocsPerRun(100, walk); allocs != 1 {
		t.Fatalf("stable walk of %d subs allocates %.1f times, want 1", len(wires), allocs)
	}

	// The stream: data casts with a control wire now and then, flushed
	// every few appends, so frames open on the cross-frame base and on
	// anchors, and mix every sub form.
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 0)
	for i := 0; i < 120; i++ {
		b.Cast(vsyncCast(int64(60+i), freshPayload(rng, 1+rng.Intn(40))))
		if i%9 == 4 {
			b.Cast(append([]byte("ack:view1:member1:seq-"), byte(i)))
		}
		if rng.Intn(4) == 0 {
			b.Flush()
		}
	}
	b.Flush()
	if st := b.Stats(); st.RunSubs < 60 || st.PrefixSubs == st.RunSubs || st.XFirstFull < 2 {
		t.Fatalf("stats %+v: the stream exercised too few forms", st)
	}
	var prev []byte
	for i, c := range sink.calls {
		_, _, _, off, _ := parseXHeader(c.data)
		bound, rebuilt := outBound(c.data, off, baseLen(prev)), 0
		_, last, _, clean := w.walkSubs(c.data, off, prev, func(sub []byte) {
			if !within(sub, c.data) {
				rebuilt += len(sub)
			}
		})
		if !clean || bound != rebuilt {
			t.Fatalf("frame %d: clean %v, outBound %d for %d rebuilt bytes", i, clean, bound, rebuilt)
		}
		prev = last
	}
}

// within reports whether sub lies in frame's bytes: surfaced in place.
func within(sub, frame []byte) bool {
	return len(sub) > 0 && uintptr(unsafe.Pointer(&sub[0])) >= uintptr(unsafe.Pointer(&frame[0])) &&
		uintptr(unsafe.Pointer(&sub[0])) < uintptr(unsafe.Pointer(&frame[0]))+uintptr(len(frame))
}

func TestDeltaBatcherRecyclesBuffers(t *testing.T) {
	sink := &discardSink{}
	b := NewBatcher(sink, 0, 0)
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
	frame := deltaFrameOf(t, wires...)
	w := NewWalker(false)
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
	run := append(fullSub(xhdr(), []byte("base-wire-0123456789")), subRun, 4, 2, 'X', 'Y', 8, 3, 'a', 'b', 'c')
	f.Add(run)
	seed, _ := mustDeltaFrame(cwire(prefix, 1, 0, 5, 0x01), cwire(prefix, 1, 0, 6))
	f.Add(seed)
	f.Add(xhdr(subFull, 0x05, 'h', 'i'))
	f.Add(xhdr(0xFF, 0x80, 0x80))
	prefixSeed, _ := mustDeltaFrame([]byte("opaque-one"), []byte("opaque-two"))
	f.Add(prefixSeed)
	f.Add(xhdr(subPrefix, 0x04, 0x00))
	f.Add([]byte{FrameMagic, 0x01, 0x03, 0x02, subFull, 0x01, 0xAB})
	for _, legacy := range legacyDatagrams() {
		f.Add(legacy)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, stable := range []bool{true, false} {
			w := NewWalker(stable)
			n := 0
			w.WalkLink(1, 2, data, func([]byte) { n++ })
			if !IsFrame(data) && n != 1 {
				t.Fatalf("non-frame surfaced %d subs, want itself", n)
			}
			w.WalkLink(1, 2, data, func([]byte) {}) // walker state survives reuse
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
		for _, w := range wires {
			b.Cast(w)
		}
		b.Flush()
		if len(sink.calls) != 1 {
			t.Fatalf("expected one frame, got %d", len(sink.calls))
		}
		wantSubs(t, collectWalk(t, NewWalker(true), sink.calls[0].data), wires)
	})
}

// TestWalkDoublingSubsStopAtTheRebuildCap: prefix+suffix subs may
// overlap their predecessor's prefix and suffix, so each can double the
// last one's length for a few bytes of frame. A frame of such subs is
// rebuilt only up to maxRebuilt bytes; the sub that would pass it starts
// the garbage tail, and outBound stops where the walk does.
func TestWalkDoublingSubsStopAtTheRebuildCap(t *testing.T) {
	frame := fullSub(xhdr(), make([]byte, 1000))
	for l := uint64(1000); l < 1<<40; l *= 2 {
		frame = append(frame, subPrefixSuffix)
		frame = binary.AppendUvarint(frame, l)
		frame = binary.AppendUvarint(frame, l)
		frame = append(frame, 0)
	}
	_, _, _, off, _ := parseXHeader(frame)
	for _, stable := range []bool{true, false} {
		rebuilt, subs := 0, 0
		var last []byte
		w := NewWalker(stable)
		n, _, _, clean := w.walkSubs(frame, off, nil, func(sub []byte) {
			subs++
			last = sub
			if !within(sub, frame) {
				rebuilt += len(sub)
			}
		})
		if clean || n != subs || rebuilt > maxRebuilt || rebuilt != outBound(frame, off, -1) {
			t.Fatalf("stable=%v: clean %v, %d subs, %d bytes rebuilt, outBound %d", stable, clean, n, rebuilt, outBound(frame, off, -1))
		}
		// The subs of 2 000 to 512 000 bytes fit; the 1 024 000-byte one
		// would not.
		if rebuilt != 1_022_000 || !within(last, frame) {
			t.Fatalf("stable=%v: rebuilt %d bytes, want 1022000; garbage tail in place %v", stable, rebuilt, within(last, frame))
		}
	}
}
