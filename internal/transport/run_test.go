package transport

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"ensemble/internal/event"
)

// The run form (flag 0x50): a changed field after the shared prefix, then
// the unchanged run after it, then fresh bytes. These tests drive it with
// the shape it was built for — a plain-stack data cast, whose full-format
// image carries mnak's seqno in the middle of its headers — and with
// everything that must not break it.

// vsyncDigest is a membership digest as a view's epoch prefix carries it
// (a nine-byte uvarint).
const vsyncDigest = 0x53f8b5ab27027d57

// vsyncCast builds a data cast's wire image as a 64-member vsync group
// without total order sends it: the epoch prefix (view 1, the digest),
// the full-format magic, type, sender rank and flags, 11 headers with
// mnak's seqno (a zigzag varint) after the first three bytes, the 16
// constant header bytes after it, then the payload.
func vsyncCast(seq int64, payload []byte) []byte {
	w := binary.AppendUvarint(nil, 1)
	w = binary.AppendUvarint(w, vsyncDigest)
	w = append(w, wireFull, byte(event.ECast), 0x02, 0x01, 0x0b, 0x01, 0x02, 0x00)
	w = binary.AppendVarint(w, seq)
	w = append(w, 0x03, 0x03, 0x04, 0x00, 0x05, 0x02, 0x06, 0x00, 0x07, 0x00, 0x08, 0x0d, 0x00, 0x0e, 0x00, 0x0a)
	return append(w, payload...)
}

// freshPayload is n bytes that share nothing with the previous call's,
// as the benchmark's payloads do.
func freshPayload(rng *rand.Rand, n int) []byte {
	p := make([]byte, n)
	rng.Read(p)
	return p
}

// TestRunSubCarriesTheVsyncCast: consecutive data casts differ in mnak's
// seqno and their payloads, so the prefix forms resend the 16 header
// bytes between them; each rides as a 38-byte run sub instead of a
// 52-byte prefix sub, on either side of a frame boundary, and comes back
// byte for byte.
func TestRunSubCarriesTheVsyncCast(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := newXLink(t, EpochPrefixUvarints, 1, 2)
	var wires [][]byte
	for i := 0; i < 40; i++ {
		w := vsyncCast(int64(2+i), freshPayload(rng, 32))
		wires = append(wires, w)
		l.b.Cast(w)
		if i%7 == 6 {
			l.b.Flush()
		}
	}
	l.b.Flush()
	got, res := l.feed()
	if res.genMiss || res.staleGen {
		t.Fatalf("lossless chain reported %+v", res)
	}
	wantSubs(t, got, wires)
	st := l.b.Stats()
	if st.RunSubs != 39 || st.PrefixSubs != 39 {
		t.Fatalf("stats %+v: want 39 run subs, counted among 39 prefix subs", st)
	}
	// The first frame: its header, one full sub (flag, length, wire), then
	// six run subs of flag, n, m, the seqno byte, k, r and 32 payload bytes.
	first := l.sink.calls[0].data
	if want := 4 + 2 + len(wires[0]) + 6*38; len(first) != want {
		t.Fatalf("first frame is %d bytes, want %d", len(first), want)
	}
}

// TestRunSubFallsBackAcrossAZigzagStep: at seqno 64 mnak's zigzag varint
// grows a byte, so the constant headers sit one byte later than in the
// previous wire and no run lines up; that one sub falls back to the
// prefix form and the next is a run again.
func TestRunSubFallsBackAcrossAZigzagStep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := newXLink(t, EpochPrefixUvarints, 1, 2)
	var wires [][]byte
	for seq := int64(58); seq < 70; seq++ {
		w := vsyncCast(seq, freshPayload(rng, 32))
		wires = append(wires, w)
		l.b.Cast(w)
		if seq == 63 {
			l.b.Flush() // the step is a frame's first sub, against the shadow
		}
	}
	l.b.Flush()
	got, _ := l.feed()
	wantSubs(t, got, wires)
	if st := l.b.Stats(); st.PrefixSubs != 11 || st.RunSubs != 10 || st.XFirstDelta != 1 {
		t.Fatalf("stats %+v: want 11 prefix subs, all but the step's as runs", st)
	}
	frame := l.sink.calls[1].data
	_, _, _, off, _ := parseXHeader(frame)
	if frame[off] != subPrefix {
		t.Fatalf("the step's sub has flag %#x, want the prefix form %#x", frame[off], subPrefix)
	}
}

// TestWalkMalformedRunSubIsGarbage: a run sub that asks for more than its
// base holds, or for bytes past the frame, surfaces from its flag byte on
// as one garbage sub, and no truncation of a good one panics.
func TestWalkMalformedRunSubIsGarbage(t *testing.T) {
	base := []byte("base-wire-0123456789") // 20 bytes
	frame := deltaFrameOf(t, 0, base)
	run := func(n, m uint64, mid []byte, k, r uint64, rest []byte) []byte {
		b := binary.AppendUvarint([]byte{subRun}, n)
		b = binary.AppendUvarint(b, m)
		b = append(b, mid...)
		b = binary.AppendUvarint(b, k)
		b = binary.AppendUvarint(b, r)
		return append(b, rest...)
	}
	good := run(4, 2, []byte("XY"), 8, 3, []byte("abc"))
	if got := collectWalk(t, NewFrameWalker(0, true), append(append([]byte(nil), frame...), good...)); len(got) != 2 || string(got[1]) != "baseXYire-0123abc" {
		t.Fatalf("well-formed run sub: %q", got)
	}
	// A run sub that takes nothing from its base is its rest alone, and
	// outBound still counts it: the walk rebuilds it all the same.
	empty := append(append([]byte(nil), frame...), run(0, 0, nil, 0, 3, []byte("abc"))...)
	if got := collectWalk(t, NewFrameWalker(0, true), empty); len(got) != 2 || string(got[1]) != "abc" {
		t.Fatalf("run sub taking nothing: %q", got)
	}
	if _, _, _, off, _ := parseXHeader(empty); NewFrameWalker(0, true).outBound(empty, off, 0) != 3 {
		t.Fatal("outBound does not count a run sub that takes nothing")
	}
	for name, tail := range map[string][]byte{
		"prefix past the base":        run(21, 0, nil, 0, 0, nil),
		"field past the base":         run(4, 17, bytes.Repeat([]byte{'x'}, 17), 0, 0, nil),
		"run past the base":           run(4, 2, []byte("XY"), 15, 0, nil),
		"mid past the frame":          run(4, 9, []byte("XY"), 1, 0, nil),
		"rest past the frame":         run(4, 2, []byte("XY"), 8, 9, []byte("abc")),
		"huge field":                  run(4, 1<<62, nil, 0, 0, nil),
		"huge run":                    run(4, 2, []byte("XY"), 1<<63, 0, nil),
		"huge rest":                   run(4, 2, []byte("XY"), 8, 1<<63, nil),
		"overlong n varint":           append([]byte{subRun}, bytes.Repeat([]byte{0x80}, 11)...),
		"run flag with the delta bit": append([]byte{subRun | subIsDelta}, good[1:]...),
	} {
		bad := append(append([]byte(nil), frame...), tail...)
		got := collectWalk(t, NewFrameWalker(0, true), bad)
		if len(got) != 2 || !bytes.Equal(got[1], tail) {
			t.Fatalf("%s: want the tail as garbage, got %q", name, got)
		}
	}
	// A run sub with nothing to take from: first in a self-contained walk.
	w := NewFrameWalker(0, true)
	var subs [][]byte
	_, _, _, clean := w.walkSubs(append(xhdr(), good...), 4, nil, func(sub []byte) { subs = append(subs, sub) })
	if clean || len(subs) != 1 || !bytes.Equal(subs[0], good) {
		t.Fatalf("baseless run sub: clean %v, subs %q", clean, subs)
	}
	whole := append(append([]byte(nil), frame...), good...)
	for cut := len(frame) + 1; cut < len(whole); cut++ {
		got := collectWalk(t, NewFrameWalker(0, true), whole[:cut])
		if len(got) != 2 || !bytes.Equal(got[1], whole[len(frame):cut]) {
			t.Fatalf("cut %d: want the base and the truncated tail as garbage, got %q", cut, got)
		}
	}
}

// parentPrefixSubLen is the length of the sub the encoder wrote for wire
// against prev, sharing n >= minPrefixLen leading bytes, before the run
// form existed: prefix+suffix when at least minSuffixLen trailing bytes
// match, else prefix.
func parentPrefixSubLen(wire, prev []byte, n int) int {
	s := commonSuffixLen(wire[n:], prev[n:])
	if s < minSuffixLen {
		s = 0
	}
	mid := len(wire) - n - s
	size := 1 + uvarintLen(uint64(n)) + uvarintLen(uint64(mid)) + mid
	if s > 0 {
		size += uvarintLen(uint64(s))
	}
	return size
}

// TestPrefixSubNeverLongerThanBefore: for seeded random pairs of related
// wires — a few bytes changed, inserted or deleted, a tail replaced — the
// chosen prefix-family sub is never longer than the sub the encoder wrote
// before the run form, is a run only when strictly shorter, and decodes
// back to the wire.
func TestPrefixSubNeverLongerThanBefore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	runs := 0
	for i := 0; i < 20000; i++ {
		prev := freshPayload(rng, 4+rng.Intn(80))
		wire := append([]byte(nil), prev...)
		for e := rng.Intn(4); e >= 0; e-- {
			p := rng.Intn(len(wire) + 1)
			switch rng.Intn(4) {
			case 0: // change a byte or a short field
				for j := p; j < len(wire) && j < p+1+rng.Intn(3); j++ {
					wire[j] ^= byte(1 + rng.Intn(255))
				}
			case 1: // grow a field by a byte
				wire = append(wire[:p], append([]byte{byte(rng.Intn(256))}, wire[p:]...)...)
			case 2: // shrink one
				if p < len(wire) {
					wire = append(wire[:p], wire[p+1:]...)
				}
			case 3: // a fresh tail
				wire = append(wire[:p], freshPayload(rng, rng.Intn(40))...)
			}
		}
		n := commonPrefixLen(wire, prev)
		if n < minPrefixLen {
			continue
		}
		sub, run := appendPrefixSub(nil, wire, prev, n)
		if parent := parentPrefixSubLen(wire, prev, n); len(sub) > parent || run && len(sub) == parent {
			t.Fatalf("wire %x against %x: sub %x (run %v) is %d bytes, before it was %d", wire, prev, sub, run, len(sub), parent)
		}
		if run {
			runs++
		}
		frame := append(fullSub(xhdr(), prev), sub...)
		got := collectWalk(t, NewFrameWalker(0, true), frame)
		if len(got) != 2 || !bytes.Equal(got[1], wire) {
			t.Fatalf("wire %x against %x: sub %x decodes to %x", wire, prev, sub, got)
		}
	}
	if runs < 1000 {
		t.Fatalf("only %d of the pairs rode as run subs", runs)
	}
}

// selfChecked is a wire that carries the CRC-32 of its other bytes in its
// last four: whatever surfaces from a walk either checks or is not a wire.
func selfChecked(w []byte) []byte {
	return binary.LittleEndian.AppendUint32(w, crc32.ChecksumIEEE(w))
}

func checks(sub []byte) bool {
	n := len(sub) - 4
	return n >= 0 && binary.LittleEndian.Uint32(sub[n:]) == crc32.ChecksumIEEE(sub[:n])
}

// TestRunSubsSurviveALossyLink: a seeded lossy link — frames lost,
// duplicated and reordered, resync answers carried back (and sometimes
// lost themselves), a view change now and then — between a batcher
// sending plain-stack data casts and control wires and a stable receive
// link. Every sub the link surfaces is either one of the sent wires,
// passing its own check, or garbage: a tail of the frame it came from.
func TestRunSubsSurviveALossyLink(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sink := &frameSink{}
		b := NewBatcher(sink, 1, 0)
		b.EnableCrossFrame(EpochPrefixUvarints)
		w := NewFrameWalker(EpochPrefixUvarints, true)
		sent := map[string]bool{}
		var flight [][]byte
		good, garbage := 0, 0
		seq := int64(rng.Intn(200))
		deliver := func(frame []byte) {
			resync, _ := w.WalkLink(1, 2, frame, func(sub []byte) {
				switch {
				case checks(sub) && sent[string(sub)]:
					good++
				case bytes.HasSuffix(frame, sub):
					garbage++
				default:
					t.Fatalf("seed %d: surfaced %x, neither a sent wire nor garbage", seed, sub)
				}
			})
			if resync != nil && rng.Intn(5) > 0 {
				cast, gen, _ := ParseResync(resync)
				b.HandleResync(2, cast, gen)
			}
		}
		for step := 0; step < 3000; step++ {
			var wire []byte
			switch r := rng.Intn(10); {
			case r < 7:
				seq++
				wire = vsyncCast(seq, freshPayload(rng, 28))
			case r < 9:
				ack := []byte("ack:view1:member1:seq-")
				wire = append(ack, byte(seq), byte(seq>>8))
			default:
				seq += int64(rng.Intn(100)) // a burst of retransmissions skipped
				continue
			}
			wire = selfChecked(wire)
			sent[string(wire)] = true
			b.Cast(wire)
			if rng.Intn(4) == 0 {
				b.Flush()
			}
			if rng.Intn(500) == 0 {
				b.BumpGenerations()
			}
			for _, c := range sink.calls {
				if rng.Intn(10) == 0 {
					continue // lost
				}
				flight = append(flight, c.data)
				if rng.Intn(20) == 0 {
					flight = append(flight, c.data) // duplicated
				}
			}
			sink.calls = sink.calls[:0]
			for len(flight) > 0 && rng.Intn(3) > 0 {
				i := 0
				if len(flight) > 1 && rng.Intn(4) == 0 {
					i = 1 + rng.Intn(len(flight)-1) // reordered
				}
				frame := flight[i]
				flight = append(flight[:i], flight[i+1:]...)
				deliver(frame)
			}
		}
		st := b.Stats()
		t.Logf("seed %d: %d run subs sent, %d subs surfaced good, %d garbage, %d resync bumps", seed, st.RunSubs, good, garbage, st.ResyncBumps)
		if st.RunSubs < 1000 || good < 1000 || st.ResyncBumps == 0 {
			t.Fatalf("seed %d: %d run subs sent, %d subs surfaced good, %d garbage, %d resync bumps: the link exercised too little",
				seed, st.RunSubs, good, garbage, st.ResyncBumps)
		}
	}
}

// TestRunSubIsTheNextDeltaBase: a compressed image whose predecessor is
// opaque rides as a run sub when they share the epoch prefix and the
// bytes after a differing field — here the magic — and is then the field
// delta's base for the compressed images after it, in its frame and
// across the boundary.
func TestRunSubIsTheNextDeltaBase(t *testing.T) {
	prefix := []uint64{1, 0xDEADBEEF}
	tail := []byte("constant-header-bytes")
	c := cwire(prefix, 0x0107, 1, 100, append(tail, 0xA1, 0xA2)...)
	opaque := append([]byte(nil), c...)
	opaque[6] = wireFull // the magic: parseSub rejects it
	opaque[len(opaque)-1] = 0xB2
	wires := [][]byte{
		opaque,
		c,
		cwire(prefix, 0x0107, 1, 101, append(tail, 0xC1, 0xC2)...),
		cwire(prefix, 0x0107, 1, 102, append(tail, 0xD1, 0xD2)...),
	}
	l := newXLink(t, 2, 1, 2)
	for i, w := range wires {
		l.b.Cast(w)
		if i == 1 {
			l.b.Flush() // the run sub ends its frame: the mirror's base
		}
	}
	l.b.Flush()
	got, _ := l.feed()
	wantSubs(t, got, wires)
	if st := l.b.Stats(); st.RunSubs != 1 || st.DeltaSubs != 2 {
		t.Fatalf("stats %+v: want the compressed image after the opaque one as a run sub, then 2 deltas", st)
	}
}
