package transport

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ensemble/internal/event"
)

// collectFrame walks one frame on a fresh link and returns copies of
// the surfaced subs.
func collectFrame(t *testing.T, data []byte) [][]byte {
	t.Helper()
	return collectWalk(t, NewWalker(true), data)
}

// collectWalk hands data to w on the 1→2 link and returns copies of the
// surfaced subs (copying during fn is the inline-consumption contract,
// so this is correct in both lifetime modes).
func collectWalk(t *testing.T, w *FrameWalker, data []byte) [][]byte {
	t.Helper()
	var subs [][]byte
	w.WalkLink(1, 2, data, func(sub []byte) {
		subs = append(subs, append([]byte(nil), sub...))
	})
	return subs
}

// xhdr is the frame header every hand-built frame in these tests starts
// from: point-to-point chain, generation 1, frame 1.
func xhdr(tail ...byte) []byte {
	return append([]byte{FrameMagic, 0x00, 0x01, 0x01}, tail...)
}

// fullSub appends wire as a full sub.
func fullSub(buf, wire []byte) []byte {
	buf = append(buf, subFull)
	buf = binary.AppendUvarint(buf, uint64(len(wire)))
	return append(buf, wire...)
}

func TestWalkLinkRoundTripFullSubs(t *testing.T) {
	want := [][]byte{[]byte("alpha"), []byte("b"), nil, bytes.Repeat([]byte{0xAB}, 300)}
	frame := xhdr()
	for _, w := range want {
		frame = fullSub(frame, w)
	}
	got := collectFrame(t, frame)
	wantSubs(t, got, want)
}

func TestWalkLinkNonFramePassesWhole(t *testing.T) {
	w := NewWalker(true)
	for _, raw := range [][]byte{{0x01, 0x02, 0x03}, nil, appendResync(nil, true, 7)} {
		got := collectWalk(t, w, raw)
		if len(got) != 1 || !bytes.Equal(got[0], raw) {
			t.Fatalf("non-frame %x should surface whole, got %x", raw, got)
		}
	}
	if c := w.Counters(); c.Frames.Load() != 0 || c.SubPackets.Load() != 0 {
		t.Fatalf("raw packets counted as frames: %d frames, %d subs", c.Frames.Load(), c.SubPackets.Load())
	}
}

// TestWalkLinkRetiredMagicsAreRawPackets: a datagram in one of the
// retired frame formats (0xB7 classic, 0xB8 intra-frame delta) is not a
// frame to this link — it surfaces whole, draws no resync, touches no
// mirror, and the live chain keeps decoding.
func TestWalkLinkRetiredMagicsAreRawPackets(t *testing.T) {
	sink := &frameSink{}
	b := NewBatcher(sink, 1, 0)
	w := NewWalker(true)
	live := func(wire string) {
		t.Helper()
		b.Send(2, []byte(wire))
		b.Flush()
		got := collectWalk(t, w, sink.calls[len(sink.calls)-1].data)
		if len(got) != 1 || string(got[0]) != wire {
			t.Fatalf("live chain broke at %q: %q", wire, got)
		}
	}
	live("live-1")
	for _, legacy := range legacyDatagrams() {
		var got [][]byte
		resync, decoded := w.WalkLink(1, 2, legacy, func(sub []byte) { got = append(got, sub) })
		if len(got) != 1 || !bytes.Equal(got[0], legacy) || resync != nil || decoded {
			t.Fatalf("legacy datagram %x: subs %x resync %x decoded %t", legacy, got, resync, decoded)
		}
	}
	live("live-2") // rides the cross-frame base: the mirror is untouched
	c := w.Counters()
	if c.Frames.Load() != 2 || c.SubPackets.Load() != 2 ||
		c.GenMisses.Load()+c.StaleGenFrames.Load()+c.Resyncs.Load() != 0 {
		t.Fatalf("link counters moved on legacy input: frames %d subs %d miss %d stale %d resync %d",
			c.Frames.Load(), c.SubPackets.Load(), c.GenMisses.Load(), c.StaleGenFrames.Load(), c.Resyncs.Load())
	}
}

// legacyDatagrams are the shapes a retired-format sender could still
// put on the wire: a well-formed classic frame, a well-formed
// intra-frame delta frame, a truncated one, and bare magics.
func legacyDatagrams() [][]byte {
	return [][]byte{
		{0xB7, 0x03, 'o', 'n', 'e', 0x03, 't', 'w', 'o'},
		{0xB8, 0x00, 0x03, 'o', 'n', 'e', 0x10, 0x02, 0x01, 'x'},
		{0xB7, 0x64, 0x01, 0x02},
		{0xB8, 0x01},
		{0xB7},
		{0xB8},
	}
}

func TestWalkLinkMagicOnlyAndEmptyFrame(t *testing.T) {
	// A bare magic (or any truncated header) is a corrupt frame: one
	// garbage sub. A header with no subs after it surfaces nothing.
	if got := collectFrame(t, []byte{FrameMagic}); len(got) != 1 {
		t.Fatalf("magic-only frame: got %d subs, want 1 garbage", len(got))
	}
	if got := collectFrame(t, xhdr()); len(got) != 0 {
		t.Fatalf("sub-less frame: got %d subs, want 0", len(got))
	}
}

func TestWalkLinkTruncatedLength(t *testing.T) {
	// 0x80 starts a multi-byte uvarint that never completes.
	data := append(fullSub(xhdr(), []byte("ok")), subFull, 0x80)
	got := collectFrame(t, data)
	wantSubs(t, got, [][]byte{[]byte("ok"), {subFull, 0x80}})
}

func TestWalkLinkLengthOverrun(t *testing.T) {
	// Declared length 100, only 3 bytes follow.
	tail := append(binary.AppendUvarint([]byte{subFull}, 100), 1, 2, 3)
	got := collectFrame(t, xhdr(tail...))
	wantSubs(t, got, [][]byte{tail})
}

func TestWalkLinkHugeLengthWraps(t *testing.T) {
	// A length near MaxUint64 would wrap int addition; must be treated
	// as an overrun, not a panic or silent success.
	tail := append(binary.AppendUvarint([]byte{subFull}, ^uint64(0)>>1), 9)
	got := collectFrame(t, xhdr(tail...))
	wantSubs(t, got, [][]byte{tail})
}

// frameSink records transmissions for batcher tests.
type frameSink struct {
	calls []sinkCall
}

type sinkCall struct {
	cast     bool
	from, to event.Addr
	data     []byte
}

func (s *frameSink) Send(from, to event.Addr, data []byte) {
	s.calls = append(s.calls, sinkCall{from: from, to: to, data: append([]byte(nil), data...)})
}

func (s *frameSink) Cast(from event.Addr, data []byte) {
	s.calls = append(s.calls, sinkCall{cast: true, from: from, data: append([]byte(nil), data...)})
}

func TestBatcherCoalescesPerDestination(t *testing.T) {
	sink := &frameSink{}
	b := NewBatcher(sink, 7, 0)
	b.Send(1, []byte("a1"))
	b.Send(1, []byte("a2"))
	b.Send(2, []byte("b1"))
	if b.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", b.Pending())
	}
	b.Flush()
	if len(sink.calls) != 2 {
		t.Fatalf("sink saw %d calls, want 2", len(sink.calls))
	}
	subs := collectFrame(t, sink.calls[0].data)
	if len(subs) != 2 || string(subs[0]) != "a1" || string(subs[1]) != "a2" {
		t.Fatalf("peer-1 frame subs = %q", subs)
	}
	if sink.calls[0].to != 1 || sink.calls[1].to != 2 || sink.calls[0].from != 7 {
		t.Fatalf("bad addressing: %+v", sink.calls)
	}
	st := b.Stats()
	if st.SubPackets != 3 || st.Frames != 2 || st.Flushes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBatcherPreservesAppendOrder(t *testing.T) {
	// cast, send-to-1, cast: the send must close the first cast frame so
	// the second cast cannot be merged ahead of it (per-peer FIFO).
	sink := &frameSink{}
	b := NewBatcher(sink, 3, 0)
	b.Cast([]byte("c1"))
	b.Send(1, []byte("s1"))
	b.Cast([]byte("c2"))
	b.Flush()
	if len(sink.calls) != 3 {
		t.Fatalf("sink saw %d calls, want 3 (no merge across the send)", len(sink.calls))
	}
	if !sink.calls[0].cast || sink.calls[1].cast || !sink.calls[2].cast {
		t.Fatalf("emission order broken: %+v", sink.calls)
	}
}

// TestBatcherFrameBudgetOneNeverCoalesces: the no-coalescing setting is
// a parameter value, not a mode — a one-byte frame budget flushes every
// wire as its own frame during the call that appended it.
func TestBatcherFrameBudgetOneNeverCoalesces(t *testing.T) {
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 1)
	b.Cast([]byte("x"))
	b.Cast([]byte("y"))
	if len(sink.calls) != 2 {
		t.Fatalf("sink saw %d calls, want 2", len(sink.calls))
	}
	if b.Pending() != 0 {
		t.Fatalf("%d frames left pending", b.Pending())
	}
	if st := b.Stats(); st.SizeFlushes != 2 || st.XFirstDelta != 0 {
		t.Fatalf("stats = %+v, want 2 size flushes", st)
	}
	w := NewWalker(true)
	got := append(collectWalk(t, w, sink.calls[0].data), collectWalk(t, w, sink.calls[1].data)...)
	wantSubs(t, got, [][]byte{[]byte("x"), []byte("y")})
}

func TestBatcherSizeThresholdFlushes(t *testing.T) {
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 32)
	big := bytes.Repeat([]byte{0xEE}, 40)
	b.Send(1, big)
	if len(sink.calls) != 1 {
		t.Fatalf("oversized wire should flush, sink saw %d calls", len(sink.calls))
	}
	subs := collectFrame(t, sink.calls[0].data)
	if len(subs) != 1 || !bytes.Equal(subs[0], big) {
		t.Fatalf("oversized sub mangled: %d subs", len(subs))
	}
}

func TestBatcherCopiesCallerBuffer(t *testing.T) {
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 0)
	wire := []byte("live")
	b.Send(1, wire)
	wire[0] = 'X'
	b.Flush()
	subs := collectFrame(t, sink.calls[0].data)
	if string(subs[0]) != "live" {
		t.Fatalf("batcher aliased caller buffer: %q", subs[0])
	}
}

// discardSink consumes frames without retaining them, like the netsim
// transmit path does (it copies into its own pools during the call).
type discardSink struct{ frames int }

func (s *discardSink) Send(from, to event.Addr, data []byte) { s.frames++ }
func (s *discardSink) Cast(from event.Addr, data []byte)     { s.frames++ }

func TestBatcherRecyclesBuffers(t *testing.T) {
	sink := &discardSink{}
	b := NewBatcher(sink, 0, 0)
	wa, wb := []byte("wire-to-1"), []byte("wire-to-2")
	for round := 0; round < 3; round++ {
		b.Send(1, wa)
		b.Send(2, wb)
		b.Flush()
	}
	allocs := testing.AllocsPerRun(100, func() {
		b.Send(1, wa)
		b.Send(2, wb)
		b.Flush()
	})
	if allocs > 0 {
		t.Fatalf("steady-state flush allocates %.1f/op, want 0", allocs)
	}
	if sink.frames == 0 {
		t.Fatal("sink saw no frames")
	}
}

func TestRegisterCodecAfterSealPanics(t *testing.T) {
	// Force the seal (any lookup does it).
	if _, err := lookupCodecByID(251); err == nil {
		t.Fatal("bogus wire id lookup unexpectedly succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RegisterCodec after seal did not panic")
		}
	}()
	RegisterCodec(HeaderCodec{Layer: "late-layer", ID: 250})
}

func BenchmarkHeaderCodecLookup(b *testing.B) {
	// "test-a" (id 200) is registered by codec_test.go's init: one
	// lookup as EncodeHeader makes it, one as the decoder does.
	var h event.Header = tHdrA{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if codecs().byID[h.WireID()] == nil {
			b.Fatal("test codec not registered")
		}
		if _, err := lookupCodecByID(200); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBatcherFlushCauseTaxonomy pins the per-cause flush accounting:
// every flush lands in exactly one cause bucket, and the buckets map to
// their triggers — buffer size, entry end, drain barrier, with the
// remainder explicit.
func TestBatcherFlushCauseTaxonomy(t *testing.T) {
	sink := &frameSink{}
	b := NewBatcher(sink, 7, 16) // tiny budget to force size flushes

	b.Send(1, []byte("0123456789abcdef")) // oversize entry: size flush
	b.Send(1, []byte("x"))
	b.FlushFor(FlushEntryEnd)
	b.Send(2, []byte("y"))
	b.FlushFor(FlushBarrier)
	b.Send(2, []byte("z"))
	b.Flush()
	b.Flush() // empty: must not count

	st := b.Stats()
	if st.SizeFlushes != 1 || st.EntryEndFlushes != 1 || st.BarrierFlushes != 1 {
		t.Fatalf("cause buckets = size %d, entry-end %d, barrier %d; want 1 each",
			st.SizeFlushes, st.EntryEndFlushes, st.BarrierFlushes)
	}
	if st.Flushes != 4 {
		t.Fatalf("total flushes = %d, want 4", st.Flushes)
	}
	if explicit := st.Flushes - st.SizeFlushes - st.EntryEndFlushes - st.BarrierFlushes; explicit != 1 {
		t.Fatalf("explicit remainder = %d, want 1", explicit)
	}
}
