package layers

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"ensemble/internal/transport"
)

// logCount is how many messages l holds.
func logCount(a *logArena, l *msgLog) int {
	n := 0
	for seq, hi := l.span(); seq < hi; seq++ {
		if _, ok := l.get(a, seq); ok {
			n++
		}
	}
	return n
}

// checkArena recomputes what a reports from its slabs and from the logs
// that draw from it: the live records every log holds, the slabs' live
// counts, and the bytes of the live slabs and of every index.
func checkArena(t *testing.T, a *logArena, logs ...*msgLog) {
	t.Helper()
	var live, held, size int64
	for _, s := range a.slabs {
		live += int64(s.live)
		size += int64(cap(s.buf))
	}
	if n := len(a.slabs); n > 0 && a.slabs[0].buf == nil {
		t.Fatal("the oldest slab is dropped but still listed")
	}
	for _, l := range logs {
		held += int64(logCount(a, l))
		if l.logBody != nil {
			size += int64(cap(l.ents)) * logRefSize
		}
	}
	if live != a.msgs || held != a.msgs || size != a.bytes {
		t.Fatalf("arena reports %d msgs and %d bytes; slabs count %d live, logs hold %d, bytes are %d",
			a.msgs, a.bytes, live, held, size)
	}
}

// recordLen is the bytes a copied record of img takes in a slab.
func recordLen(img transport.Image) int {
	return 1 + len(binary.AppendUvarint(nil, uint64(len(img.Hdrs)))) +
		len(binary.AppendUvarint(nil, uint64(len(img.Payload)))) + len(img.Hdrs) + len(img.Payload)
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

func cloneImage(img transport.Image) transport.Image {
	img.Hdrs = bytes.Clone(img.Hdrs)
	img.Payload = bytes.Clone(img.Payload)
	return img
}

func mustHold(t *testing.T, a *logArena, l *msgLog, seq int64, size int) {
	t.Helper()
	got, ok := l.get(a, seq)
	if !ok {
		t.Fatalf("seq %d: absent, want held", seq)
	}
	if want := testImage(seq, size); !sameImage(got, want) {
		t.Fatalf("seq %d: got %+v, want %+v", seq, got, want)
	}
}

func mustLack(t *testing.T, a *logArena, l *msgLog, seqs ...int64) {
	t.Helper()
	for _, seq := range seqs {
		if _, ok := l.get(a, seq); ok {
			t.Fatalf("seq %d: held, want absent", seq)
		}
	}
}

func TestMsgLogPutGetTrim(t *testing.T) {
	var (
		a logArena
		l msgLog
	)
	mustLack(t, &a, &l, -1, 0, 1)
	for seq := int64(0); seq < 10; seq++ {
		if !l.put(&a, seq, testImage(seq, 40)) {
			t.Fatalf("put %d refused", seq)
		}
	}
	for seq := int64(0); seq < 10; seq++ {
		mustHold(t, &a, &l, seq, 40)
	}
	mustLack(t, &a, &l, -1, 10)

	l.trimBelow(&a, 4)
	mustLack(t, &a, &l, 0, 3)
	mustHold(t, &a, &l, 4, 40)
	if lo, hi := l.span(); lo != 4 || hi != 10 {
		t.Fatalf("span [%d,%d), want [4,10)", lo, hi)
	}
	if l.put(&a, 2, testImage(2, 40)) {
		t.Fatal("put below the base accepted")
	}
	l.trimBelow(&a, 1) // backwards: no-op
	mustHold(t, &a, &l, 4, 40)
	checkArena(t, &a, &l)
}

func TestMsgLogDuplicateFirstWins(t *testing.T) {
	var (
		a logArena
		l msgLog
	)
	l.put(&a, 7, testImage(7, 10))
	other := testImage(7, 10)
	other.Payload[0] ^= 0xFF
	if l.put(&a, 7, other) {
		t.Fatal("duplicate put accepted")
	}
	mustHold(t, &a, &l, 7, 10)
	checkArena(t, &a, &l)
	if a.msgs != 1 {
		t.Fatalf("log holds %d, want 1", a.msgs)
	}
}

func TestMsgLogOutOfOrder(t *testing.T) {
	var (
		a logArena
		l msgLog
	)
	for _, seq := range []int64{5, 2, 9, 3} {
		if !l.put(&a, seq, testImage(seq, 20)) {
			t.Fatalf("put %d refused", seq)
		}
	}
	for _, seq := range []int64{2, 3, 5, 9} {
		mustHold(t, &a, &l, seq, 20)
	}
	mustLack(t, &a, &l, 0, 1, 4, 6, 7, 8, 10)
	// Filling a hole later works; trimming into the sparse part keeps the
	// survivors.
	l.put(&a, 4, testImage(4, 20))
	l.trimBelow(&a, 4)
	mustLack(t, &a, &l, 2, 3)
	for _, seq := range []int64{4, 5, 9} {
		mustHold(t, &a, &l, seq, 20)
	}
	if l.put(&a, logMaxAhead+20, testImage(1, 1)) {
		t.Fatal("put implausibly far ahead accepted")
	}
	checkArena(t, &a, &l)
}

func TestMsgLogTrimPastEnd(t *testing.T) {
	var (
		a logArena
		l msgLog
	)
	for seq := int64(0); seq < 5; seq++ {
		l.put(&a, seq, testImage(seq, 30))
	}
	l.trimBelow(&a, 100)
	checkArena(t, &a, &l)
	if a.msgs != 0 || len(a.slabs) != 1 {
		t.Fatalf("after trimming past the end: %d held, %d slabs (the open one alone)", a.msgs, len(a.slabs))
	}
	if l.put(&a, 50, testImage(50, 30)) {
		t.Fatal("put below a base that moved past the end accepted")
	}
	if !l.put(&a, 100, testImage(100, 30)) {
		t.Fatal("put at the new base refused")
	}
	mustHold(t, &a, &l, 100, 30)
	checkArena(t, &a, &l)
}

// TestMsgLogSlabs: the records of several logs share an arena's slabs,
// roll over into new ones, big ones get their own; a slab is dropped
// once none of its records is live, whichever logs they belonged to, and
// not while one is — and an image handed out before survives its slab
// being dropped (slabs are never rewritten).
func TestMsgLogSlabs(t *testing.T) {
	var a logArena
	logs := make([]msgLog, 4)
	if logs[0].logBody != nil || a.slabs != nil {
		t.Fatal("an empty log or arena owns storage")
	}
	for seq := int64(0); seq < 200; seq++ {
		for o := range logs {
			logs[o].put(&a, seq, testImage(seq, 50))
		}
	}
	if n := len(a.slabs); n < 2 || n > 200*4*recordLen(testImage(0, 50))/logSlabBytes+1 {
		t.Fatalf("800 records in %d slab(s)", n)
	}
	for _, s := range a.slabs {
		if cap(s.buf) != logSlabBytes {
			t.Fatalf("shared slab of %d bytes", cap(s.buf))
		}
	}
	checkArena(t, &a, &logs[0], &logs[1], &logs[2], &logs[3])

	big := int64(200)
	logs[0].put(&a, big, testImage(big, 3*logSlabBytes))
	logs[0].put(&a, big+1, testImage(big+1, 50))
	mustHold(t, &a, &logs[0], big, 3*logSlabBytes)
	if s := a.at(logs[0].ents[logs[0].head+int(big)].slab); s.live != 1 || cap(s.buf) > 3*logSlabBytes+64 {
		t.Fatalf("the big record's slab: %d live, cap %d", s.live, cap(s.buf))
	}

	// Trimming one log drops no slab: the others' records keep them live.
	early, _ := logs[0].get(&a, 3)
	slabs := len(a.slabs)
	logs[0].trimBelow(&a, 150)
	if len(a.slabs) != slabs {
		t.Fatalf("trimming one of four logs changed the slabs: %d before, %d after", slabs, len(a.slabs))
	}
	for o := 1; o < len(logs); o++ {
		logs[o].trimBelow(&a, 150)
	}
	if len(a.slabs) >= slabs {
		t.Fatalf("trimming every log to 150 of 200 dropped no slab (%d before, %d after)", slabs, len(a.slabs))
	}
	checkArena(t, &a, &logs[0], &logs[1], &logs[2], &logs[3])
	for o := range logs {
		for seq := int64(150); seq < 200; seq++ {
			mustHold(t, &a, &logs[o], seq, 50)
		}
	}
	// Churn: many more slabs come and go; refs must keep resolving.
	for seq := big + 2; seq < big+2000; seq++ {
		for o := range logs {
			logs[o].put(&a, seq, testImage(seq, 50))
			if seq%64 == 0 {
				logs[o].trimBelow(&a, seq-32)
			}
			mustHold(t, &a, &logs[o], seq, 50)
		}
	}
	checkArena(t, &a, &logs[0], &logs[1], &logs[2], &logs[3])
	if !sameImage(early, testImage(3, 50)) {
		t.Fatal("an image read before the trim changed after it")
	}
}

// TestMsgLogNeverTrimmed: Stack4 and StackFifo have no stability layer,
// so nothing ever trims their logs. An arena that grew past 65 536 live
// slabs — small records sharing slabs in one log, and owned arrival runs
// with a slab each, by reference, in another — still returns every
// message it was given, and nothing else. The runs are overlapping
// windows of one buffer, so the slabs cost no memory of their own.
func TestMsgLogNeverTrimmed(t *testing.T) {
	const slabs = 1<<16 + 1000
	bigLen := logSlabBytes
	wire := make([]byte, bigLen+slabs)
	rand.New(rand.NewSource(9)).Read(wire)
	bigImage := func(seq int64) transport.Image {
		run := wire[seq : seq+int64(bigLen)]
		return transport.Image{Hdrs: run[:2], Payload: run[2:], NHdrs: 2, ApplMsg: true}
	}
	var (
		a          logArena
		small, big msgLog
	)
	n := int64(0)
	for ; len(a.slabs) < slabs; n++ {
		if !small.put(&a, n, testImage(n, 8)) || !big.put(&a, n, bigImage(n)) {
			t.Fatalf("put %d refused", n)
		}
	}
	if got, _ := big.get(&a, 0); !within(got.Payload, wire) {
		t.Fatal("an owned arrival run was copied")
	}
	for _, l := range []*msgLog{&small, &big} {
		if lo, hi := l.span(); lo != 0 || hi != n {
			t.Fatalf("span [%d,%d), want [0,%d)", lo, hi, n)
		}
		mustLack(t, &a, l, -1, n)
	}
	check := func(from int64) {
		t.Helper()
		for seq := from; seq < n; seq++ {
			mustHold(t, &a, &small, seq, 8)
			if got, ok := big.get(&a, seq); !ok || !sameImage(got, bigImage(seq)) {
				t.Fatalf("big seq %d: held=%t", seq, ok)
			}
		}
	}
	check(0)
	checkArena(t, &a, &small, &big)

	// Trimming that many slabs at once leaves the rest resolvable: the
	// small log's slabs still pin the front, the big log's are dropped.
	big.trimBelow(&a, n-100)
	small.trimBelow(&a, n-100)
	mustLack(t, &a, &big, 0, n-101)
	check(n - 100)
	checkArena(t, &a, &small, &big)
	kept := 0
	for _, s := range a.slabs {
		if s.buf != nil {
			kept++
		}
	}
	if kept > 100+2 {
		t.Fatalf("%d slabs kept for 100 big records and a few small ones", kept)
	}
}

// TestLogRetentionFollowsStability: a receiver's 64 origin logs share one
// arena; 150 rounds of casts arrive before stability trims every log to
// its last 11. What is retained — index and slabs — is then at most
// twice the live records' bytes plus one slab, not the peak the logs
// reached; and a log that is never trimmed pins at most one slab per
// record it holds.
func TestLogRetentionFollowsStability(t *testing.T) {
	const origins, rounds, keep, size = 64, 150, 11, 45
	img := func(seq int64) transport.Image { return testImage(seq, size-2) }
	run := func(t *testing.T, pinned int64) {
		var a logArena
		logs := make([]msgLog, origins+1)
		all := make([]*msgLog, len(logs))
		for o := range logs {
			all[o] = &logs[o]
		}
		for r := int64(0); r < rounds; r++ {
			for o := 0; o < origins; o++ {
				logs[o].put(&a, r, img(r))
			}
			if r%(rounds/max(pinned, 1)) == 0 && r/(rounds/max(pinned, 1)) < pinned {
				logs[origins].put(&a, r, img(r))
			}
		}
		for o := 0; o < origins; o++ {
			logs[o].trimBelow(&a, rounds-keep)
		}
		held := int64(origins*keep) + pinned
		if a.msgs != held {
			t.Fatalf("%d records live, want %d", a.msgs, held)
		}
		live := held * int64(recordLen(img(0)))
		if bound := 2*live + logSlabBytes*(1+pinned); a.bytes > bound {
			t.Fatalf("%d records (%d B) retain %d B, more than %d", held, live, a.bytes, bound)
		}
		t.Logf("%d records (%d B) retain %d B", held, live, a.bytes)
		checkArena(t, &a, all...)
	}
	t.Run("trimmed", func(t *testing.T) { run(t, 0) })
	t.Run("one_log_never_trimmed", func(t *testing.T) { run(t, 5) })
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

// FuzzMsgLog drives three logs that share one arena, each beside a map
// model, through an arbitrary operation sequence; every log must agree
// with its model on every sequence number near the action after every
// step, and the arena's live count with the models together. Puts come
// in three kinds, interleaved: images in two separate buffers (always
// copied), owned arrival runs (kept by reference once a record would get
// a slab of its own), and borrowed arrival runs, whose bytes the fuzzer
// rewrites as soon as put returns. Every image read before a trim must
// read the same bytes after it, and after every later step.
func FuzzMsgLog(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 1, 10, 2, 0, 0, 1, 1, 0})
	f.Add([]byte{0, 5, 200, 0, 2, 7, 0, 9, 255, 2, 3, 0, 0, 5, 9, 1, 3, 0})
	f.Add(bytes.Repeat([]byte{0, 1, 90}, 300))
	f.Add([]byte{3, 4, 200, 6, 5, 200, 0, 6, 20, 3, 7, 150, 6, 8, 255, 1, 6, 0, 3, 9, 140})
	f.Add(bytes.Repeat([]byte{3, 1, 160, 6, 1, 170, 0, 1, 30, 1, 9, 0}, 40))
	f.Add(bytes.Repeat([]byte{0, 1, 90, 9, 2, 60, 18, 3, 30, 10, 20, 0, 27, 1, 200, 19, 9, 0}, 30))
	f.Fuzz(func(t *testing.T, ops []byte) {
		type logModel struct {
			log        msgLog
			model      map[int64]transport.Image
			base, next int64
		}
		var (
			a      logArena
			logs   [3]logModel
			before []transport.Image // read before a trim, as read
			want   []transport.Image // and as they must stay
		)
		for i := range logs {
			logs[i].model = map[int64]transport.Image{}
		}
		for len(ops) >= 3 {
			op, x, b := ops[0], int64(ops[1]), int(ops[2])
			ops = ops[3:]
			lm := &logs[op/9%3]
			l, model := &lm.log, lm.model
			switch op % 3 {
			case 0: // put near the frontier: behind it, at it, ahead of it
				seq, size, kind := lm.next+x%16-4, b*b/8, op/3%3
				img := testImage(seq, size)
				if kind > 0 {
					img = arrivalImage(seq, size, kind == 2)
				}
				_, dup := model[seq]
				ok := seq >= lm.base && !dup
				if got := l.put(&a, seq, img); got != ok {
					t.Fatalf("put(%d) = %t, want %t (base %d)", seq, got, ok, lm.base)
				}
				if ok {
					model[seq] = testImage(seq, size)
					lm.next = max(lm.next, seq+1)
				}
				if kind == 0 {
					break
				}
				run := img.Hdrs[:len(img.Hdrs)+size]
				if kept, _ := l.get(&a, seq); ok && size > 0 {
					ownSlab := 1+2*binary.MaxVarintLen32+len(run) > logSlabBytes
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
				seq := lm.base + x%24
				for q := lm.base; q < seq && len(before) < 64; q++ {
					if img, ok := l.get(&a, q); ok {
						before, want = append(before, img), append(want, cloneImage(img))
					}
				}
				l.trimBelow(&a, seq)
				for q := range model {
					if q < seq {
						delete(model, q)
					}
				}
				lm.base = max(lm.base, seq)
				lm.next = max(lm.next, lm.base)
			case 2: // far-ahead put is refused and changes nothing
				if l.put(&a, lm.next+logMaxAhead+x, testImage(0, 1)) {
					t.Fatal("far-ahead put accepted")
				}
			}
			held := 0
			for i := range logs {
				lm := &logs[i]
				for q := lm.base - 3; q < lm.next+3; q++ {
					got, ok := lm.log.get(&a, q)
					want, has := lm.model[q]
					if ok != has || (ok && !sameImage(got, want)) {
						t.Fatalf("log %d seq %d: log holds=%t, model holds=%t", i, q, ok, has)
					}
				}
				held += len(lm.model)
			}
			if a.msgs != int64(held) {
				t.Fatalf("arena counts %d live, the models hold %d", a.msgs, held)
			}
			checkArena(t, &a, &logs[0].log, &logs[1].log, &logs[2].log)
			for i := range before {
				if !sameImage(before[i], want[i]) {
					t.Fatalf("an image read before a trim changed: %+v, was %+v", before[i], want[i])
				}
			}
		}
	})
}

// BenchmarkMsgLogKeep is the steady state of a receiver in a 64-member
// group: 64 origin logs share one arena, a delivered 32-byte cast under
// nine one- and two-byte headers is kept per origin per round,
// round-robin, and stability trims every log to its last 64 rounds every
// 64 rounds. It reports what the arena retains per live message
// (retainedB/msg, index and slabs) and the live heap the logs take per
// live message (heapB/msg, which checks the arena's own count).
func BenchmarkMsgLogKeep(b *testing.B) {
	const origins = 64
	img := transport.Image{Hdrs: make([]byte, 18), Payload: make([]byte, 32), NHdrs: 9, ApplMsg: true}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc
	a := new(logArena)
	logs := make([]msgLog, origins)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round, o := int64(i/origins), i%origins
		logs[o].put(a, round, img)
		if o == origins-1 && round%64 == 63 {
			for k := range logs {
				logs[k].trimBelow(a, round-64)
			}
		}
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(a.bytes)/float64(a.msgs), "retainedB/msg")
	b.ReportMetric(float64(int64(ms.HeapAlloc)-int64(heap0))/float64(a.msgs), "heapB/msg")
	runtime.KeepAlive(logs)
}
