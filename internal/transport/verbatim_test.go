package transport

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// A frame-sized wire (at least the frame budget long) rides verbatim: a
// prefix sub with n = 0 where it shares a prefix with its predecessor,
// and every walker surfaces it where it landed instead of rebuilding it.

var vPrefix = []uint64{4, 0x1D6E57}

// bigWire is a frame-sized compressed image, seq-th on its chain.
func bigWire(seq int64) []byte {
	return cwire(vPrefix, 0x0107, 1, seq, bytes.Repeat([]byte{byte(seq), 0x5A}, DefaultFrameBytes/2)...)
}

// smallWire is a compressed image well under the budget; its last bytes
// are tail, so consecutive small wires elide a shared suffix.
func smallWire(seq int64, tail byte) []byte {
	return cwire(vPrefix, 0x0107, 1, seq, byte(seq), 0x40, tail, tail+1, tail+2)
}

// vSub appends an n = 0 prefix sub carrying wire to buf.
func vSub(buf, wire []byte) []byte {
	buf = append(buf, subPrefix, 0)
	buf = binary.AppendUvarint(buf, uint64(len(wire)))
	return append(buf, wire...)
}

// aliases reports whether sub is the slice of frame it would be if
// surfaced in place at the frame's end.
func aliases(sub, frame []byte) bool {
	return len(sub) > 0 && len(sub) <= len(frame) && &sub[0] == &frame[len(frame)-len(sub)]
}

func TestFrameSizedWireSurfacesInPlace(t *testing.T) {
	sink := &frameSink{}
	b := NewBatcher(sink, 1, 0)
	small, big := smallWire(1, 0x70), bigWire(2)
	b.Cast(small)
	b.Flush()
	b.Cast(big) // fills a frame: size flush
	if len(sink.calls) != 2 {
		t.Fatalf("sink saw %d frames, want 2", len(sink.calls))
	}
	st := b.Stats()
	if st.VerbatimSubs != 1 || st.DeltaSubs != 0 || st.PrefixSubs != 0 || st.XFirstDelta != 1 {
		t.Fatalf("stats = %+v, want one verbatim sub, dependent on its predecessor", st)
	}
	frame := sink.calls[1].data
	_, _, _, off, _ := parseXHeader(frame)
	if frame[off] != subPrefix || frame[off+1] != 0 {
		t.Fatalf("frame-sized wire rides as %x, want a prefix sub with n = 0", frame[off:off+2])
	}
	// Mid-frame too: a full sub, then an n = 0 prefix sub.
	mid := []byte("verbatim after a full sub")
	hand := vSub(fullSub(xhdr(), []byte("a full sub")), mid)
	for _, stable := range []bool{true, false} {
		w := NewWalker(stable)
		w.WalkLink(1, 2, sink.calls[0].data, func([]byte) {})
		var got []byte
		w.WalkLink(1, 2, frame, func(sub []byte) { got = sub })
		if !bytes.Equal(got, big) {
			t.Fatalf("stable=%v: surfaced %d bytes, want the %d-byte wire", stable, len(got), len(big))
		}
		if !aliases(got, frame) || cap(got) != len(got) {
			t.Fatalf("stable=%v: the first sub was rebuilt, not surfaced in place", stable)
		}
		got = nil
		NewWalker(stable).WalkLink(1, 2, hand, func(sub []byte) { got = sub })
		if !bytes.Equal(got, mid) || !aliases(got, hand) {
			t.Fatalf("stable=%v: mid-frame n = 0 sub = %q, in place %v", stable, got, aliases(got, hand))
		}
	}
}

// TestVerbatimSubMatchesTheRebuildPath: an n = 0 prefix sub means its
// explicit bytes — what a walker rebuilding it from an empty shared
// prefix yields. The same wire as an n = 0 prefix+suffix sub takes the
// rebuild path and must come out byte-identical.
func TestVerbatimSubMatchesTheRebuildPath(t *testing.T) {
	base := []byte("predecessor-wire")
	wire := []byte("verbatim bytes that end as the base does: wire")
	sfx := commonSuffixLen(wire, base)
	if sfx < minSuffixLen {
		t.Fatalf("test wires share a %d-byte suffix", sfx)
	}
	inPlace := vSub(fullSub(xhdr(), base), wire)
	rebuilt := fullSub(xhdr(), base)
	rebuilt = append(rebuilt, subPrefixSuffix, 0, byte(sfx), byte(len(wire)-sfx))
	rebuilt = append(rebuilt, wire[:len(wire)-sfx]...)
	for _, stable := range []bool{true, false} {
		var a, r []byte
		NewWalker(stable).WalkLink(1, 2, inPlace, func(sub []byte) { a = sub })
		NewWalker(stable).WalkLink(1, 2, rebuilt, func(sub []byte) { r = append([]byte(nil), sub...) })
		if !bytes.Equal(a, wire) || !bytes.Equal(r, wire) {
			t.Fatalf("stable=%v: in place %q, rebuilt %q, want %q", stable, a, r, wire)
		}
		if !aliases(a, inPlace) {
			t.Fatalf("stable=%v: the n = 0 sub was rebuilt", stable)
		}
	}
}

// TestWarmStableLinkWalksFrameSizedWiresWithoutAllocating: a chain of
// frame-sized wires costs a warm stable link nothing — no rebuild
// buffer, and the mirror keeps each trailing sub by reference.
func TestWarmStableLinkWalksFrameSizedWiresWithoutAllocating(t *testing.T) {
	sink := &frameSink{}
	b := NewBatcher(sink, 1, 0)
	const n = 160
	for i := int64(0); i < n; i++ {
		b.Cast(bigWire(i))
	}
	if st := b.Stats(); st.VerbatimSubs != n || int(st.Frames) != n {
		t.Fatalf("stats = %+v, want %d frames of one verbatim sub", st, n)
	}
	w := NewWalker(true)
	surfaced, next := 0, 0
	count := func([]byte) { surfaced++ }
	walk := func() {
		if resync, _ := w.WalkLink(1, 2, sink.calls[next].data, count); resync != nil {
			t.Fatalf("frame %d drew a resync", next)
		}
		next++
	}
	for next < 20 {
		walk()
	}
	if allocs := testing.AllocsPerRun(100, walk); allocs != 0 {
		t.Fatalf("warm walk of a frame-sized wire allocates %.1f times, want 0", allocs)
	}
	if surfaced != next {
		t.Fatalf("%d frames surfaced %d subs", next, surfaced)
	}
}

// TestWalkNeverWritesAFrame walks a chain that mixes frame-sized wires
// (kept by reference) with small rebuilt ones (copied into the mirror's
// own storage), with one frame reordered into the stash and a generation
// bump that leaves pre-bump stragglers in flight. Every surfaced sub
// must be the wire sent, and no frame may change by a byte: the mirror
// must never append into a frame it references, and after the bump the
// two generations must not share storage.
func TestWalkNeverWritesAFrame(t *testing.T) {
	sink := &frameSink{}
	b := NewBatcher(sink, 1, 0)
	frame := func(wires ...[]byte) {
		for _, w := range wires {
			b.Cast(w)
		}
		b.Flush()
	}
	var (
		s1, b2, s3, s4 = smallWire(1, 0x70), bigWire(2), smallWire(3, 0x70), smallWire(4, 0x70)
		b5, s6, s7     = bigWire(5), smallWire(6, 0x70), smallWire(7, 0x70)
		t1, t2         = smallWire(1, 0x10), smallWire(2, 0x10)
		u3, t4         = bigWire(3), smallWire(4, 0x10)
	)
	frame(s1)     // F1: anchor
	frame(b2)     // F2: n = 0
	frame(s3, s4) // F3: rebuilt trailing sub
	frame(b5)     // F4: n = 0
	frame(s6)     // F5: rebuilt
	frame(s7)     // F6: a pre-bump straggler
	b.BumpGenerations()
	frame(t1, t2) // G1: anchor, rebuilt trailing sub
	frame(u3)     // G2: n = 0
	frame(t4)     // G3: rebuilt
	if len(sink.calls) != 9 {
		t.Fatalf("sink saw %d frames, want 9", len(sink.calls))
	}
	order := []int{0, 2, 1, 3, 4, 6, 5, 7, 8} // F3 before F2; F6 after G1
	want := [][]byte{s1, b2, s3, s4, b5, s6, t1, t2, s7, u3, t4}
	sums := make([]uint32, len(sink.calls))
	for i, c := range sink.calls {
		sums[i] = crc32.ChecksumIEEE(c.data)
	}
	for _, stable := range []bool{true, false} {
		w := NewWalker(stable)
		var got, kept [][]byte
		for _, i := range order {
			res := w.walkLink(1, 2, sink.calls[i].data, func(sub []byte) {
				got = append(got, append([]byte(nil), sub...))
				kept = append(kept, sub)
			})
			if res.genMiss || res.staleGen {
				t.Fatalf("stable=%v: frame %d: %+v", stable, i, res)
			}
		}
		wantSubs(t, got, want)
		if stable {
			wantSubs(t, kept, want) // retained subs stay intact too
		}
		for i, c := range sink.calls {
			if crc32.ChecksumIEEE(c.data) != sums[i] {
				t.Fatalf("stable=%v: frame %d was written by the walk", stable, i)
			}
		}
	}
}

// TestVerbatimSubWithoutMirror: with no mirror, a frame opened by an
// n = 0 prefix sub is not self-contained. The link parks it like any
// dependent frame and answers with a resync once the hole is a loss;
// decoded with nothing seeded, the sub surfaces as garbage.
func TestVerbatimSubWithoutMirror(t *testing.T) {
	sink := &frameSink{}
	b := NewBatcher(sink, 1, 0)
	for i := int64(0); i < 2+xStashNag+1; i++ {
		b.Cast(bigWire(i))
	}
	for _, stable := range []bool{true, false} {
		w := NewWalker(stable)
		var resync []byte
		subs := 0
		for _, c := range sink.calls[1:] { // frame 1, the anchor, is lost
			resync, _ = w.WalkLink(1, 2, c.data, func([]byte) { subs++ })
		}
		if subs != 0 || resync == nil {
			t.Fatalf("stable=%v: cold link surfaced %d subs, resync %x", stable, subs, resync)
		}
		data := sink.calls[1].data
		_, _, _, off, _ := parseXHeader(data)
		var got [][]byte
		n, _, _, clean := w.walkSubs(data, off, nil, func(sub []byte) { got = append(got, sub) })
		if clean || n != 1 || !bytes.Equal(got[0], data[off:]) {
			t.Fatalf("stable=%v: unseeded walk: clean %v, %d subs", stable, clean, n)
		}
	}
}
