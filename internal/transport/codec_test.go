package transport

import (
	"bytes"
	"math/rand"
	"testing"

	"ensemble/internal/event"
)

// Test-local header types; the real layer codecs are exercised by the
// integration suites in internal/core and internal/opt.
type tHdrA struct{ X, Y int64 }

func (tHdrA) Layer() string       { return "test-a" }
func (tHdrA) WireID() byte        { return 200 }
func (h tHdrA) HdrString() string { return "test-a" }

type tHdrB struct{ S int64 }

func (tHdrB) Layer() string       { return "test-b" }
func (tHdrB) WireID() byte        { return 201 }
func (h tHdrB) HdrString() string { return "test-b" }

func init() {
	RegisterCodec(HeaderCodec{
		Layer: "test-a", ID: 200,
		Encode: func(h event.Header, w *Writer) {
			a := h.(tHdrA)
			w.Varint(a.X)
			w.Varint(a.Y)
		},
		Decode: func(r *Reader) (event.Header, error) {
			return tHdrA{X: r.Varint(), Y: r.Varint()}, nil
		},
	})
	RegisterCodec(HeaderCodec{
		Layer: "test-b", ID: 201,
		Encode: func(h event.Header, w *Writer) { w.Varint(h.(tHdrB).S) },
		Decode: func(r *Reader) (event.Header, error) { return tHdrB{S: r.Varint()}, nil },
	})
}

func TestMarshalUnmarshalRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		ev := event.Alloc()
		ev.Dir = event.Dn
		ev.Type = event.ECast
		if rng.Intn(2) == 0 {
			ev.Type = event.ESend
		}
		ev.ApplMsg = rng.Intn(2) == 0
		ev.Msg.Payload = make([]byte, rng.Intn(64))
		rng.Read(ev.Msg.Payload)
		nh := rng.Intn(6)
		for j := 0; j < nh; j++ {
			if rng.Intn(2) == 0 {
				ev.Msg.Push(tHdrA{X: rng.Int63n(1000) - 500, Y: rng.Int63()})
			} else {
				ev.Msg.Push(tHdrB{S: rng.Int63n(9999)})
			}
		}
		sender := rng.Intn(8)

		var w Writer
		if err := Marshal(ev, sender, &w); err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if got.Dir != event.Up {
			t.Fatal("unmarshaled event must travel up")
		}
		if got.Type != ev.Type || got.Peer != sender || got.ApplMsg != ev.ApplMsg {
			t.Fatalf("fields: got %+v", got)
		}
		if !bytes.Equal(got.Msg.Payload, ev.Msg.Payload) {
			t.Fatal("payload mismatch")
		}
		if len(got.Msg.Headers) != len(ev.Msg.Headers) {
			t.Fatalf("header count %d != %d", len(got.Msg.Headers), len(ev.Msg.Headers))
		}
		for k := range ev.Msg.Headers {
			if got.Msg.Headers[k] != ev.Msg.Headers[k] {
				t.Fatalf("header %d: %v != %v", k, got.Msg.Headers[k], ev.Msg.Headers[k])
			}
		}
		event.Free(ev)
		event.Free(got)
	}
}

// TestUnmarshalHeaderOrder pins the pop order: the bottom layer (pushed
// last) must pop first on the receive side.
func TestUnmarshalHeaderOrder(t *testing.T) {
	ev := event.Alloc()
	ev.Type = event.ECast
	ev.Msg.Push(tHdrA{X: 1}) // top layer pushes first
	ev.Msg.Push(tHdrB{S: 2}) // bottom layer pushes last
	var w Writer
	if err := Marshal(ev, 0, &w); err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if h := got.Msg.Pop(); h != (tHdrB{S: 2}) {
		t.Fatalf("first pop = %v, want the bottom header", h)
	}
	if h := got.Msg.Pop(); h != (tHdrA{X: 1}) {
		t.Fatalf("second pop = %v, want the top header", h)
	}
	event.Free(ev)
	event.Free(got)
}

// TestUnmarshalCorruptInputs: random corruption must yield errors, never
// panics, and never events with implausible shapes.
func TestUnmarshalCorruptInputs(t *testing.T) {
	ev := event.Alloc()
	ev.Type = event.ECast
	ev.Msg.Push(tHdrA{X: 5, Y: 6})
	ev.Msg.Payload = []byte("payload")
	var w Writer
	if err := Marshal(ev, 1, &w); err != nil {
		t.Fatal(err)
	}
	wire := w.Bytes()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		corrupt := append([]byte(nil), wire...)
		switch rng.Intn(3) {
		case 0: // flip a byte
			corrupt[rng.Intn(len(corrupt))] ^= byte(1 + rng.Intn(255))
		case 1: // truncate
			corrupt = corrupt[:rng.Intn(len(corrupt))]
		case 2: // random garbage
			corrupt = make([]byte, rng.Intn(40))
			rng.Read(corrupt)
		}
		got, err := Unmarshal(corrupt)
		if err == nil {
			event.Free(got)
		}
	}
}

func TestMarshalUnknownLayerFails(t *testing.T) {
	ev := event.Alloc()
	ev.Type = event.ECast
	ev.Msg.Push(event.NoHdr{L: "never-registered"})
	var w Writer
	if err := Marshal(ev, 0, &w); err == nil {
		t.Fatal("marshal of unregistered layer header succeeded")
	}
	event.Free(ev)
}

func TestDuplicateCodecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate codec registration did not panic")
		}
	}()
	RegisterCodec(HeaderCodec{Layer: "test-a", ID: 250})
}
