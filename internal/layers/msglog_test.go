package layers

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ensemble/internal/transport"
)

// logCount is how many messages l holds.
func logCount(l *msgLog) int {
	n := 0
	for seq, hi := l.span(); seq < hi; seq++ {
		if _, ok := l.get(seq); ok {
			n++
		}
	}
	return n
}

// testImage is a recognizable image for sequence number seq: size bytes
// of payload derived from seq, a two-byte header segment, flags that
// vary with it.
func testImage(seq int64, size int) transport.Image {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(seq) + byte(i)
	}
	return transport.Image{
		Hdrs: []byte{byte(seq >> 8), byte(seq)}, Payload: p,
		NHdrs: uint8(seq % 60), ApplMsg: seq%2 == 0,
	}
}

func sameImage(a, b transport.Image) bool {
	return bytes.Equal(a.Hdrs, b.Hdrs) && bytes.Equal(a.Payload, b.Payload) && a.NHdrs == b.NHdrs && a.ApplMsg == b.ApplMsg
}

func mustHold(t *testing.T, l *msgLog, seq int64, size int) {
	t.Helper()
	got, ok := l.get(seq)
	if !ok {
		t.Fatalf("seq %d: absent, want held", seq)
	}
	if want := testImage(seq, size); !sameImage(got, want) {
		t.Fatalf("seq %d: got %+v, want %+v", seq, got, want)
	}
}

func mustLack(t *testing.T, l *msgLog, seqs ...int64) {
	t.Helper()
	for _, seq := range seqs {
		if _, ok := l.get(seq); ok {
			t.Fatalf("seq %d: held, want absent", seq)
		}
	}
}

func TestMsgLogPutGetTrim(t *testing.T) {
	var l msgLog
	mustLack(t, &l, -1, 0, 1)
	for seq := int64(0); seq < 10; seq++ {
		if !l.put(seq, testImage(seq, 40)) {
			t.Fatalf("put %d refused", seq)
		}
	}
	for seq := int64(0); seq < 10; seq++ {
		mustHold(t, &l, seq, 40)
	}
	mustLack(t, &l, -1, 10)

	l.trimBelow(4)
	mustLack(t, &l, 0, 3)
	mustHold(t, &l, 4, 40)
	if lo, hi := l.span(); lo != 4 || hi != 10 {
		t.Fatalf("span [%d,%d), want [4,10)", lo, hi)
	}
	if l.put(2, testImage(2, 40)) {
		t.Fatal("put below the base accepted")
	}
	l.trimBelow(1) // backwards: no-op
	mustHold(t, &l, 4, 40)
}

func TestMsgLogDuplicateFirstWins(t *testing.T) {
	var l msgLog
	l.put(7, testImage(7, 10))
	other := testImage(7, 10)
	other.Payload[0] ^= 0xFF
	if l.put(7, other) {
		t.Fatal("duplicate put accepted")
	}
	mustHold(t, &l, 7, 10)
	if n := logCount(&l); n != 1 {
		t.Fatalf("log holds %d, want 1", n)
	}
}

func TestMsgLogOutOfOrder(t *testing.T) {
	var l msgLog
	for _, seq := range []int64{5, 2, 9, 3} {
		if !l.put(seq, testImage(seq, 20)) {
			t.Fatalf("put %d refused", seq)
		}
	}
	for _, seq := range []int64{2, 3, 5, 9} {
		mustHold(t, &l, seq, 20)
	}
	mustLack(t, &l, 0, 1, 4, 6, 7, 8, 10)
	// Filling a hole later works; trimming into the sparse part keeps the
	// survivors.
	l.put(4, testImage(4, 20))
	l.trimBelow(4)
	mustLack(t, &l, 2, 3)
	for _, seq := range []int64{4, 5, 9} {
		mustHold(t, &l, seq, 20)
	}
	if l.put(logMaxAhead+20, testImage(1, 1)) {
		t.Fatal("put implausibly far ahead accepted")
	}
}

func TestMsgLogTrimPastEnd(t *testing.T) {
	var l msgLog
	for seq := int64(0); seq < 5; seq++ {
		l.put(seq, testImage(seq, 30))
	}
	l.trimBelow(100)
	if n := logCount(&l); n != 0 || len(l.slabs) != 0 {
		t.Fatalf("after trimming past the end: %d held, %d slabs", n, len(l.slabs))
	}
	if l.put(50, testImage(50, 30)) {
		t.Fatal("put below a base that moved past the end accepted")
	}
	if !l.put(100, testImage(100, 30)) {
		t.Fatal("put at the new base refused")
	}
	mustHold(t, &l, 100, 30)
}

// TestMsgLogSlabs: records roll over into new slabs, big ones get their
// own, trimming releases slabs whole — and an image handed out before
// survives its slab being released (slabs are never rewritten).
func TestMsgLogSlabs(t *testing.T) {
	var l msgLog
	if l.logBody != nil {
		t.Fatal("an empty log owns storage")
	}
	for seq := int64(0); seq < 200; seq++ {
		l.put(seq, testImage(seq, 50))
	}
	if len(l.slabs) < 2 {
		t.Fatalf("200 records in %d slab(s): no roll-over", len(l.slabs))
	}
	for _, s := range l.slabs {
		if cap(s.buf) > logMaxSlab {
			t.Fatalf("shared slab of %d bytes", cap(s.buf))
		}
	}
	big := int64(200)
	l.put(big, testImage(big, 3*logMaxSlab))
	l.put(big+1, testImage(big+1, 50))
	mustHold(t, &l, big, 3*logMaxSlab)
	if s := l.slabs[len(l.slabs)-2]; s.last != big || cap(s.buf) > 3*logMaxSlab+64 {
		t.Fatalf("the big record's slab: last=%d cap=%d", s.last, cap(s.buf))
	}

	early, _ := l.get(3)
	slabs := len(l.slabs)
	l.trimBelow(150)
	if len(l.slabs) >= slabs {
		t.Fatalf("trimming 150 of 202 released no slab (%d before, %d after)", slabs, len(l.slabs))
	}
	for seq := int64(150); seq < 200; seq++ {
		mustHold(t, &l, seq, 50)
	}
	// Churn: many more slabs come and go; refs must keep resolving.
	for seq := big + 2; seq < big+5000; seq++ {
		l.put(seq, testImage(seq, 50))
		if seq%64 == 0 {
			l.trimBelow(seq - 32)
		}
		mustHold(t, &l, seq, 50)
	}
	if !sameImage(early, testImage(3, 50)) {
		t.Fatal("an image read before the trim changed after it")
	}
}

// TestMsgLogNeverTrimmed: Stack4 and StackFifo have no stability layer,
// so nothing ever trims their logs. One that grew past 65 536 live slabs
// — small records sharing slabs first, then large ones with a slab each —
// still returns every message it was given, and nothing else.
func TestMsgLogNeverTrimmed(t *testing.T) {
	const slabs = 1<<16 + 1000
	var l msgLog
	size := func(seq int64) int {
		if seq%64 == 63 {
			return logMaxSlab/logSlabRecs + 1 // a slab of its own
		}
		return 8
	}
	n := int64(0)
	for ; l.logBody == nil || len(l.slabs) < slabs; n++ {
		if !l.put(n, testImage(n, size(n))) {
			t.Fatalf("put %d refused", n)
		}
	}
	if lo, hi := l.span(); lo != 0 || hi != n {
		t.Fatalf("span [%d,%d), want [0,%d)", lo, hi, n)
	}
	for seq := int64(0); seq < n; seq++ {
		mustHold(t, &l, seq, size(seq))
	}
	mustLack(t, &l, -1, n)

	// Trimming that many slabs at once leaves the rest resolvable.
	l.trimBelow(n - 100)
	mustLack(t, &l, 0, n-101)
	for seq := n - 100; seq < n; seq++ {
		mustHold(t, &l, seq, size(seq))
	}
}

// arrivalImage is testImage laid out as a message off the wire is: the
// header bytes and the payload one contiguous run, borrowed or owned.
func arrivalImage(seq int64, size int, borrowed bool) transport.Image {
	img := testImage(seq, size)
	run := append(append([]byte(nil), img.Hdrs...), img.Payload...)
	img.Hdrs, img.Payload = run[:len(img.Hdrs)], run[len(img.Hdrs):]
	img.Borrowed = borrowed
	return img
}

// FuzzMsgLog drives a log and a map side by side through an arbitrary
// operation sequence; they must agree on every sequence number near the
// action after every step. Puts come in three kinds, interleaved: images
// in two separate buffers (always copied), owned arrival runs (kept by
// reference once a record would get a slab of its own), and borrowed
// arrival runs, whose bytes the fuzzer rewrites as soon as put returns.
func FuzzMsgLog(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 1, 10, 2, 0, 0, 1, 1, 0})
	f.Add([]byte{0, 5, 200, 0, 2, 7, 0, 9, 255, 2, 3, 0, 0, 5, 9, 1, 3, 0})
	f.Add(bytes.Repeat([]byte{0, 1, 90}, 300))
	f.Add([]byte{3, 4, 200, 6, 5, 200, 0, 6, 20, 3, 7, 150, 6, 8, 255, 1, 6, 0, 3, 9, 140})
	f.Add(bytes.Repeat([]byte{3, 1, 160, 6, 1, 170, 0, 1, 30, 1, 9, 0}, 40))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var l msgLog
		model := map[int64]transport.Image{}
		base, next := int64(0), int64(0)
		for len(ops) >= 3 {
			op, a, b := ops[0], int64(ops[1]), int(ops[2])
			ops = ops[3:]
			switch op % 3 {
			case 0: // put near the frontier: behind it, at it, ahead of it
				seq, size, kind := next+a%16-4, b*b/8, op/3%3
				img := testImage(seq, size)
				if kind > 0 {
					img = arrivalImage(seq, size, kind == 2)
				}
				_, dup := model[seq]
				want := seq >= base && !dup
				if got := l.put(seq, img); got != want {
					t.Fatalf("put(%d) = %t, want %t (base %d)", seq, got, want, base)
				}
				if want {
					model[seq] = testImage(seq, size)
					next = max(next, seq+1)
				}
				if kind == 0 {
					break
				}
				run := img.Hdrs[:len(img.Hdrs)+size]
				if kept, _ := l.get(seq); want && size > 0 {
					ownSlab := (1+2*binary.MaxVarintLen32+len(run))*logSlabRecs > logMaxSlab
					if byRef := within(kept.Payload, run); byRef != (kind == 1 && ownSlab) {
						t.Fatalf("put(%d) of %d bytes, borrowed %t: kept by reference = %t", seq, len(run), img.Borrowed, byRef)
					}
				}
				if img.Borrowed {
					for i := range run {
						run[i] = 0xEE
					}
				}
			case 1: // trim, sometimes past the end
				seq := base + a%24
				l.trimBelow(seq)
				for q := range model {
					if q < seq {
						delete(model, q)
					}
				}
				base = max(base, seq)
				next = max(next, base)
			case 2: // far-ahead put is refused and changes nothing
				if l.put(next+logMaxAhead+a, testImage(0, 1)) {
					t.Fatal("far-ahead put accepted")
				}
			}
			for q := base - 3; q < next+3; q++ {
				got, ok := l.get(q)
				want, held := model[q]
				if ok != held || (ok && !sameImage(got, want)) {
					t.Fatalf("seq %d: log holds=%t, model holds=%t", q, ok, held)
				}
			}
			if n := logCount(&l); n != len(model) {
				t.Fatalf("log holds %d, model %d", n, len(model))
			}
		}
	})
}

// BenchmarkMsgLogKeep is the cost of keeping one delivered 32-byte cast
// under nine one- and two-byte headers, with stability trimming every
// 64: the steady state of a receiver.
func BenchmarkMsgLogKeep(b *testing.B) {
	img := transport.Image{Hdrs: make([]byte, 18), Payload: make([]byte, 32), NHdrs: 9, ApplMsg: true}
	var l msgLog
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.put(int64(i), img)
		if i%64 == 63 {
			l.trimBelow(int64(i) - 64)
		}
	}
}
