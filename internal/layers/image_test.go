package layers

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"ensemble/internal/event"
	"ensemble/internal/transport"
)

// msgClone is the deep clone the buffering layers used before they
// retained images: a payload copy and an independently owned copy of
// the header stack. It survives here as the oracle the image round trip
// is held to.
type msgClone struct {
	payload []byte
	hdrs    []event.Header
	applMsg bool
}

func cloneMsg(ev *event.Event) *msgClone {
	return &msgClone{
		payload: append([]byte(nil), ev.Msg.Payload...),
		hdrs:    event.AppendClonedHeaders(nil, ev.Msg.Headers),
		applMsg: ev.ApplMsg,
	}
}

// everyHeader is allHeaderVariants plus the variants that list leaves to
// tests of their own.
func everyHeader() []event.Header {
	var mac [32]byte
	for i := range mac {
		mac[i] = byte(i * 7)
	}
	return append(allHeaderVariants(),
		collectGossip{Vector: []int64{3, 1 << 40, 0, -1}},
		signHdr{Mac: mac},
		membFlushTree{ViewSeq: 9, Round: 1, Frontier: []int64{4, 5}, Excluded: []int32{2}},
		membFlushAgg{ViewSeq: 9, Round: 1, Count: 3, Mismatch: true, Vector: []int64{1, 2}, Max: []int64{2, 2}},
	)
}

// randomEvent builds an event under a random stack of header variants
// (any variant of any codec, any order: the transport does not care
// which layer sits where).
func randomEvent(rng *rand.Rand) *event.Event {
	ev := event.Alloc()
	ev.Dir, ev.Type, ev.Peer = event.Up, event.ECast, rng.Intn(8)
	ev.ApplMsg = rng.Intn(2) == 0
	ev.Msg.Payload = make([]byte, rng.Intn(200))
	rng.Read(ev.Msg.Payload)
	all := everyHeader()
	for n := rng.Intn(13); n > 0; n-- {
		ev.Msg.Push(event.CloneHeader(all[rng.Intn(len(all))]))
	}
	return ev
}

// sameMsg holds ev's message to the oracle.
func sameMsg(t *testing.T, what string, ev *event.Event, want *msgClone) {
	t.Helper()
	if ev.ApplMsg != want.applMsg || !bytes.Equal(ev.Msg.Payload, want.payload) {
		t.Fatalf("%s: payload or ApplMsg differ", what)
	}
	if len(ev.Msg.Headers) != len(want.hdrs) {
		t.Fatalf("%s: %d headers, want %d", what, len(ev.Msg.Headers), len(want.hdrs))
	}
	for i, h := range ev.Msg.Headers {
		if !equalHeader(want.hdrs[i], h) {
			t.Fatalf("%s: header %d is %s, want %s", what, i, h.HdrString(), want.hdrs[i].HdrString())
		}
	}
}

// within reports whether b lies inside buf's storage.
func within(b, buf []byte) bool {
	if len(b) == 0 {
		return true
	}
	lo, hi := uintptr(unsafe.Pointer(unsafe.SliceData(buf))), uintptr(unsafe.Pointer(unsafe.SliceData(buf)))+uintptr(len(buf))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return p >= lo && p+uintptr(len(b)) <= hi
}

// TestImageRoundTrip is the property FromImage(ImageOf(ev)) ≡ clone(ev),
// over random stacks of every header variant of every codec, on each of
// the ways a layer comes to hold an event: built locally (encoded on
// demand), off the wire after any number of pops (a free suffix of the
// arrival buffer), pushed onto after arriving (encoded again), and out
// of a log.
func TestImageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var w, scratch transport.Writer
	roundTrip := func(what string, ev *event.Event) {
		t.Helper()
		want := cloneMsg(ev)
		img, err := transport.ImageOf(ev, &scratch)
		if err != nil {
			t.Fatalf("%s: ImageOf: %v", what, err)
		}
		// Through a log, so the image outlives ev and the writer.
		var (
			a logArena
			l msgLog
		)
		l.put(&a, 4, img)
		event.Free(ev)
		scratch.Reset()
		kept, _ := l.get(&a, 4)
		out := event.Alloc()
		if err := transport.FromImage(kept, out); err != nil {
			t.Fatalf("%s: FromImage: %v", what, err)
		}
		sameMsg(t, what, out, want)
		// The decoded event knows its encoding: imaging it again is free
		// and yields the same bytes.
		again, err := transport.ImageOf(out, nil)
		if err != nil || !bytes.Equal(again.Hdrs, kept.Hdrs) || !within(again.Hdrs, kept.Hdrs) {
			t.Fatalf("%s: re-imaging a decoded event: err=%v, free=%t", what, err, within(again.Hdrs, kept.Hdrs))
		}
		event.Free(out)
		for _, h := range want.hdrs {
			event.FreeHeader(h)
		}
	}
	for i := 0; i < 400; i++ {
		roundTrip("local", randomEvent(rng))

		ev := randomEvent(rng)
		if err := transport.Marshal(ev, 3, &w); err != nil {
			t.Fatal(err)
		}
		wire := w.Bytes()
		event.Free(ev)
		arrived, err := transport.Unmarshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		for pops := rng.Intn(len(arrived.Msg.Headers) + 1); pops > 0; pops-- {
			event.FreeHeader(arrived.Msg.Pop())
		}
		img, err := transport.ImageOf(arrived, nil) // nil writer: must not encode
		if err != nil || !within(img.Hdrs, wire) || !within(img.Payload, wire) {
			t.Fatalf("an arrived event's image is not a piece of the wire (err=%v)", err)
		}
		if rng.Intn(3) == 0 {
			// A push ends that: the stack is no longer what was decoded.
			arrived.Msg.Push(mnakRetrans{Origin: 1, Seqno: 99})
			if _, ok := arrived.Msg.EncodedHeaders(); ok {
				t.Fatal("a pushed-onto event still claims its wire encoding")
			}
			roundTrip("arrived+push", arrived)
		} else {
			roundTrip("arrived", arrived)
		}
	}
}

// TestImageOfDupForgetsEncoding: event.Dup's copy must not claim the
// original's offset table, which is recycled with the original.
func TestImageOfDupForgetsEncoding(t *testing.T) {
	ev := event.Alloc()
	ev.Type = event.ECast
	ev.Msg.Payload = []byte("p")
	ev.Msg.Push(topHdr{})
	ev.Msg.Push(&mnakData{Seqno: 5})
	var w transport.Writer
	if err := transport.Marshal(ev, 0, &w); err != nil {
		t.Fatal(err)
	}
	arrived, err := transport.Unmarshal(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	dup := event.Dup(arrived)
	if _, ok := dup.Msg.EncodedHeaders(); ok {
		t.Fatal("Dup kept the encoded-form record")
	}
	if _, ok := arrived.Msg.EncodedHeaders(); !ok {
		t.Fatal("Dup disturbed the original's record")
	}
	event.Free(ev)
	event.Free(arrived)
	event.Free(dup)
}

// FuzzFromImage: no header bytes, count or payload may make the decoder
// do anything but succeed or return an error.
func FuzzFromImage(f *testing.F) {
	f.Add([]byte{idTop, idPt2pt, p2pTagPass}, uint8(2), []byte("x"))
	f.Add([]byte{idMnak, mnakTagData, 0x80}, uint8(1), []byte(nil))
	f.Add([]byte{}, uint8(200), []byte("y"))
	f.Fuzz(func(t *testing.T, hdrs []byte, n uint8, payload []byte) {
		ev := event.Alloc()
		err := transport.FromImage(transport.Image{Hdrs: hdrs, Payload: payload, NHdrs: n}, ev)
		if err == nil && len(ev.Msg.Headers) != int(n) {
			t.Fatalf("decoded %d headers of %d without an error", len(ev.Msg.Headers), n)
		}
		event.Free(ev)
	})
}
