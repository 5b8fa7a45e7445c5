package opt

import (
	"math/rand"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/layers"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// Adversarial wire input: whatever arrives from the network — random
// garbage, truncations, bit flips of valid compressed and full images —
// the engine must neither panic nor deliver corrupted structure to the
// layers (payload corruption is the sign layer's department).
func TestEnginePacketFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	eng, err := NewEngine(layers.Stack10(), layer.DefaultConfig(testView(2, 1)), stack.Func)
	if err != nil {
		t.Fatal(err)
	}
	eng.Deliver = func(int, []byte, bool) {}

	// Collect some genuine wire images from a peer engine.
	peer, err := NewEngine(layers.Stack10(), layer.DefaultConfig(testView(2, 0)), stack.Func)
	if err != nil {
		t.Fatal(err)
	}
	var samples [][]byte
	peer.SendWire = func(cast bool, dst int, wire []byte) {
		samples = append(samples, append([]byte(nil), wire...))
	}
	for i := 0; i < 20; i++ {
		peer.Cast(make([]byte, rng.Intn(40)))
		peer.Send(1, make([]byte, rng.Intn(40)))
	}
	if len(samples) == 0 {
		t.Fatal("no wire samples collected")
	}
	// Well-formed full images whose headers are not this stack's — none at
	// all, the 4-layer stack's, and proper suffixes of this stack's — each
	// dropped whole, and in the pool the mutations below draw from.
	var w transport.Writer
	bare := event.CastEv([]byte("no headers"))
	if err := transport.Marshal(bare, 0, &w); err != nil {
		t.Fatal(err)
	}
	event.Free(bare)
	foreign := [][]byte{append([]byte(nil), w.Bytes()...)}
	v := testView(2, 0)
	other, err := stack.Build(layers.Stack4(), layer.DefaultConfig(v), stack.Func, stack.Callbacks{Net: func(ev *event.Event) {
		if ev.Type != event.ECast {
			return
		}
		if err := transport.Marshal(ev, 0, &w); err != nil {
			t.Fatal(err)
		}
		foreign = append(foreign, append([]byte(nil), w.Bytes()...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	other.SubmitDn(event.InitEv(v))
	other.SubmitDn(event.CastEv([]byte("from another stack")))
	// And this stack's own cast cut short to its k outermost headers,
	// for every k: a valid suffix of the stack that ends in a header its
	// layer passes up, to a layer that would pop an empty stack.
	depth := len(layers.Stack10())
	short, err := stack.Build(layers.Stack10(), layer.DefaultConfig(v), stack.Func, stack.Callbacks{Net: func(ev *event.Event) {
		if ev.Type != event.ECast {
			return
		}
		for k := depth - 1; k >= 1; k-- {
			event.FreeHeader(ev.Msg.Headers[0]) // the innermost
			ev.Msg.Headers = ev.Msg.Headers[1:]
			if err := transport.Marshal(ev, 0, &w); err != nil {
				t.Fatal(err)
			}
			foreign = append(foreign, append([]byte(nil), w.Bytes()...))
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	short.SubmitDn(event.InitEv(v))
	short.SubmitDn(event.CastEv([]byte("cut short")))
	if len(foreign) != 2+depth-1 {
		t.Fatalf("built %d foreign images, want %d", len(foreign), 2+depth-1)
	}
	for _, img := range foreign {
		was := eng.Stats().Undecodable
		eng.Packet(img)
		if got := eng.Stats().Undecodable; got != was+1 {
			t.Fatalf("foreign image %x not dropped", img)
		}
	}
	samples = append(samples, foreign...)

	for trial := 0; trial < 20000; trial++ {
		var pkt []byte
		switch rng.Intn(4) {
		case 0: // pure garbage
			pkt = make([]byte, rng.Intn(64))
			rng.Read(pkt)
		case 1: // truncated valid image
			s := samples[rng.Intn(len(samples))]
			pkt = append([]byte(nil), s[:rng.Intn(len(s)+1)]...)
		case 2: // bit-flipped valid image
			s := samples[rng.Intn(len(samples))]
			pkt = append([]byte(nil), s...)
			if len(pkt) > 0 {
				pkt[rng.Intn(len(pkt))] ^= byte(1 << rng.Intn(8))
			}
		case 3: // valid magic, garbage body
			pkt = append([]byte{0xC0}, make([]byte, rng.Intn(32))...)
			rng.Read(pkt[1:])
		}
		eng.Packet(pkt) // must not panic
	}
	t.Logf("post-fuzz stats: %+v", eng.Stats())
}

// The fallback stack behind the engine must stay usable after arbitrary
// garbage: a clean message still flows end to end.
func TestEngineSurvivesGarbageThenWorks(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var engs [2]*Engine
	delivered := 0
	for m := 0; m < 2; m++ {
		m := m
		eng, err := NewEngine(layers.Stack4(), layer.DefaultConfig(testView(2, m)), stack.Imp)
		if err != nil {
			t.Fatal(err)
		}
		eng.Deliver = func(int, []byte, bool) { delivered++ }
		engs[m] = eng
	}
	for m := 0; m < 2; m++ {
		m := m
		engs[m].SendWire = func(cast bool, dst int, wire []byte) {
			// Snapshot: the wire is only valid during this callback.
			engs[1-m].Packet(append([]byte(nil), wire...))
		}
	}
	for i := 0; i < 5000; i++ {
		garbage := make([]byte, rng.Intn(48))
		rng.Read(garbage)
		engs[1].Packet(garbage)
	}
	engs[0].Cast([]byte("still alive"))
	if delivered != 1 {
		t.Fatalf("delivered %d after garbage storm, want 1", delivered)
	}
}
