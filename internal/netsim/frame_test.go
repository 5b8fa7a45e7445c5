package netsim

// Batched-frame delivery tests: the network substrates hand coalesced
// frames to the receive link so that a receiver sees one recv call per
// wire, while the Stats invariant stays at the transmission level (one
// frame = one Sent = one Delivered).

import (
	"encoding/binary"
	"fmt"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/transport"
)

// buildFrame hand-assembles a self-contained frame: point-to-point
// chain, generation 1, frame 1, every sub full.
func buildFrame(subs ...[]byte) []byte {
	buf := []byte{transport.FrameMagic, 0x00, 0x01, 0x01}
	for _, s := range subs {
		buf = append(buf, 0x00)
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// TestClusterArriveUnpacksFrames: a frame is one transmission on the
// books and one recv call per sub-packet, in order, at the receiver; a
// raw packet passes through whole; a cast frame fans out the same way.
func TestClusterArriveUnpacksFrames(t *testing.T) {
	var got []string
	c := wired(3, Profile{Latency: 1000}, 2, func(_ event.Addr, p Packet) { got = append(got, string(p.Data)) })
	c.eps[0].Send(1, 2, buildFrame([]byte("alpha"), []byte("b"), []byte("ccc")))
	c.eps[0].Send(1, 2, []byte{0x01, 0x02})
	c.eps[0].Cast(1, buildFrame([]byte("y1")))
	c.Run(int64(1e9))

	want := []string{"alpha", "b", "ccc", "\x01\x02", "y1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	st := c.Net().Stats()
	if st.Sent != 3 || st.Delivered != 3 {
		t.Fatalf("invariant must stay frame-level: %+v", st)
	}
	if st.Frames != 2 || st.SubPackets != 4 {
		t.Fatalf("Frames=%d SubPackets=%d, want 2/4", st.Frames, st.SubPackets)
	}
	if st.Sent+st.Duplicated != st.Delivered+st.Dropped {
		t.Fatalf("stats invariant broken: %+v", st)
	}
}

// TestAdaptiveQuantumDeterminism: the adaptive controller reads only the
// per-batch routed-event count, so Run and RunConcurrent still produce
// byte-identical traces for the same seed while the window scales.
func TestAdaptiveQuantumDeterminism(t *testing.T) {
	mk := func() *Cluster {
		c := clusterEcho(7, Lossy(0.2), 6, 5)
		c.EnableAdaptiveQuantum(1_000, 40_000)
		return c
	}
	seq := mk()
	seq.Run(int64(5e9))
	conc := mk()
	conc.RunConcurrent(int64(5e9), 3) // fewer workers than members
	if seq.TraceString() != conc.TraceString() {
		t.Fatal("adaptive-quantum traces diverge between Run and RunConcurrent")
	}
	if seq.quantum == 1_000 {
		t.Fatal("quantum never adapted from its floor")
	}
}

// TestAdaptiveQuantumClamps: the controller stays inside [min, max] and
// a zero/negative floor is lifted to 1 so doubling can always make
// progress.
func TestAdaptiveQuantumClamps(t *testing.T) {
	c := clusterEcho(9, Profile{Latency: 50_000}, 3, 4)
	c.EnableAdaptiveQuantum(0, 8_000)
	if c.qMin != 1 {
		t.Fatalf("qMin = %d, want 1", c.qMin)
	}
	c.Run(int64(5e9))
	if c.quantum < c.qMin || c.quantum > c.qMax {
		t.Fatalf("quantum %d escaped [%d, %d]", c.quantum, c.qMin, c.qMax)
	}
}

// --- batcher-built frames through the netsim substrates ---

// compressedWire builds a compressed wire image the way core.Member emits
// them: epoch prefix uvarints, then the 0xC0 compressed header.
func compressedWire(epochSeq, viewTag uint64, id uint16, sender uint64, seq int64, rest ...byte) []byte {
	w := binary.AppendUvarint(nil, epochSeq)
	w = binary.AppendUvarint(w, viewTag)
	w = append(w, transport.WireCompressed, byte(id), byte(id>>8))
	w = binary.AppendUvarint(w, sender)
	w = binary.AppendVarint(w, seq)
	return append(w, rest...)
}

// frameCapture is a BatchSink that keeps copies of flushed frames.
type frameCapture struct{ frames [][]byte }

func (c *frameCapture) Send(from, to event.Addr, data []byte) {
	c.frames = append(c.frames, append([]byte(nil), data...))
}
func (c *frameCapture) Cast(from event.Addr, data []byte) {
	c.frames = append(c.frames, append([]byte(nil), data...))
}

// deltaFrame batches the wires as a member would (member epoch prefix)
// and returns the single resulting frame.
func deltaFrame(t *testing.T, wires ...[]byte) []byte {
	t.Helper()
	sink := &frameCapture{}
	b := transport.NewBatcher(sink, 1, 1<<20)
	for _, w := range wires {
		b.Cast(w)
	}
	b.Flush()
	if len(sink.frames) != 1 {
		t.Fatalf("batcher emitted %d frames, want 1", len(sink.frames))
	}
	return sink.frames[0]
}

// TestClusterArriveUnpacksDeltaFrames: a frame of subs encoded against
// their predecessors fans out into the original wires, byte for byte,
// while the Stats invariant stays at the transmission level and
// BytesOnWire counts the compressed frame. The link runs in stable mode, so subs the receiver retains
// without copying stay intact after further frames are walked
// (mailboxes hold subs across deliveries within a drain).
func TestClusterArriveUnpacksDeltaFrames(t *testing.T) {
	wires := [][]byte{
		compressedWire(3, 7, 12, 1, 100, 0x03, 0x04, 0x05, 0x06, 0xAA),
		compressedWire(3, 7, 12, 1, 101, 0x03, 0x04, 0x05, 0x06, 0xBB), // a run sub: the seqno and the tail ride
		compressedWire(3, 7, 12, 1, 102, 0x03, 0x04, 0x05, 0x06, 0xCC),
		compressedWire(4, 7, 12, 1, 0, 0x03, 0x04, 0x05, 0x06, 0xDD), // epoch changed: shares nothing, full
	}
	frame := deltaFrame(t, wires...)
	sum := 0
	for _, w := range wires {
		sum += len(w)
	}
	if len(frame) >= sum {
		t.Fatalf("frame (%dB) not smaller than its wires (%dB)", len(frame), sum)
	}
	castFrame := deltaFrame(t, wires[0])

	var got [][]byte
	c := wired(3, Profile{Latency: 1000}, 2, func(_ event.Addr, p Packet) { got = append(got, p.Data) }) // retained, no copy
	c.eps[0].Send(1, 2, frame)
	c.eps[0].Cast(1, castFrame)
	c.Run(int64(1e9))

	if len(got) != len(wires)+1 {
		t.Fatalf("receiver saw %d subs, want %d", len(got), len(wires)+1)
	}
	for i, w := range append(wires, wires[0]) {
		if string(got[i]) != string(w) {
			t.Fatalf("sub %d: got % x, want % x", i, got[i], w)
		}
	}
	st := c.Net().Stats()
	if st.Sent != 2 || st.Delivered != 2 || st.Frames != 2 || st.SubPackets != int64(len(wires)+1) {
		t.Fatalf("frame accounting: %+v", st)
	}
	if st.BytesOnWire != int64(len(frame)+len(castFrame)) {
		t.Fatalf("BytesOnWire = %d, want the frames' sizes %d", st.BytesOnWire, len(frame)+len(castFrame))
	}
	if st.Sent+st.Duplicated != st.Delivered+st.Dropped {
		t.Fatalf("stats invariant broken: %+v", st)
	}
}

// TestDeltaGarbageKeepsInvariant: a corrupt frame (a sub in the retired
// field-delta form, an unknown flag) surfaces its tail as one garbage sub —
// delivered, counted, no panic — so the frame-level invariant survives
// malformed input.
func TestDeltaGarbageKeepsInvariant(t *testing.T) {
	tail := []byte{0x01, 0x00, 0x02, 0xFF}
	frame := append(buildFrame([]byte("ok")), tail...)
	var got [][]byte
	c := wired(1, Profile{Latency: 1000}, 2, func(to event.Addr, p Packet) {
		if to == 2 {
			got = append(got, p.Data)
		}
	})
	c.eps[0].Send(1, 2, frame)
	c.Run(int64(1e9))

	if len(got) != 2 || string(got[0]) != "ok" || string(got[1]) != string(tail) {
		t.Fatalf("garbage tail not surfaced whole: %v", got)
	}
	st := c.Net().Stats()
	// The broken frame earns a resync back to its sender: one more Sent,
	// one more Delivered (a raw packet endpoint 1 swallows).
	if st.Sent != 2 || st.Delivered != 2 || st.Frames != 1 || st.SubPackets != 2 || st.GenMisses != 1 || st.Resyncs != 1 {
		t.Fatalf("garbage accounting: %+v", st)
	}
	if st.Sent+st.Duplicated != st.Delivered+st.Dropped {
		t.Fatalf("stats invariant broken: %+v", st)
	}
}

// TestCastBytesOnWireCountsOnce: a multicast frame's bytes land on the
// wire once, however many receivers fan out (BytesSent keeps the
// per-receiver figure).
func TestCastBytesOnWireCountsOnce(t *testing.T) {
	c := wired(1, Profile{}, 4, func(event.Addr, Packet) {})
	data := []byte("hello world")
	c.eps[0].Cast(1, data)
	c.Run(int64(1e9))
	st := c.Net().Stats()
	if st.BytesOnWire != int64(len(data)) {
		t.Fatalf("BytesOnWire = %d, want %d (counted once)", st.BytesOnWire, len(data))
	}
	if st.BytesSent != int64(3*len(data)) {
		t.Fatalf("BytesSent = %d, want %d (per receiver)", st.BytesSent, 3*len(data))
	}
}
