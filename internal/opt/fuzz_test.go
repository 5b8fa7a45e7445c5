package opt

import (
	"encoding/binary"
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

// packetSeq encodes a sequence of compressed images as FuzzEnginePacket
// reads them: each one's length (uvarint), then the image without its
// leading magic byte.
func packetSeq(imgs ...[]byte) []byte {
	var out []byte
	for _, img := range imgs {
		out = binary.AppendUvarint(out, uint64(len(img)-1))
		out = append(out, img[1:]...)
	}
	return out
}

// FuzzEnginePacket feeds a non-sequencer of a 3-member 10-layer group a
// sequence of compressed images, seeded with genuine ones — another
// member's unordered casts, the sequencer's stamped casts, and the
// order runs that number the former — in orders that park and release,
// announce early, and leave gaps. Whatever the bytes, the engine must
// not panic; no compiled release loop may hand on more casts than an
// order run can name (total's maxRun, 256); and deliveries never exceed
// the casts that arrived, so nothing is released that was not parked.
func FuzzEnginePacket(f *testing.F) {
	const n, maxRun = 3, 256
	var engs [n]*Engine
	var unstamped, stamped, orders [][]byte
	announcing := false
	for m := range engs {
		eng, err := NewEngine(layers.Stack10(), layer.DefaultConfig(testView(n, m)), stack.Func)
		if err != nil {
			f.Fatal(err)
		}
		eng.SendWire = func(cast bool, _ int, wire []byte) {
			if !cast || wire[0] != transport.WireCompressed {
				return
			}
			img := append([]byte(nil), wire...)
			switch m {
			case 1:
				unstamped = append(unstamped, img)
				engs[0].Packet(img)
			case 0:
				if announcing {
					orders = append(orders, img)
				} else {
					stamped = append(stamped, img)
				}
			}
		}
		engs[m] = eng
	}
	for k := 0; k < 3; k++ {
		engs[1].Cast([]byte{'u', byte(k)})
	}
	announcing = true
	engs[0].Submit(event.BurstEndEv())
	announcing = false
	for k := 0; k < 2; k++ {
		engs[0].Cast([]byte{'s', byte(k)})
	}
	if len(unstamped) != 3 || len(orders) != 1 || len(stamped) != 2 {
		f.Fatalf("collected %d unordered casts, %d order runs, %d stamped casts; want 3, 1, 2", len(unstamped), len(orders), len(stamped))
	}
	orderID := binary.LittleEndian.Uint16(orders[0][1:3])
	u, s, o := unstamped, stamped, orders[0]
	f.Add(packetSeq(u[0], u[1], u[2], o, s[0], s[1]))
	f.Add(packetSeq(o, u[0], u[1], u[2], s[0], s[1]))
	f.Add(packetSeq(s[1], u[0], o, u[1], u[2], s[0]))
	f.Add(packetSeq(u[0], u[1], u[2], o, o, u[2], s[0], s[0]))

	f.Fuzz(func(t *testing.T, in []byte) {
		eng, err := NewEngine(layers.Stack10(), layer.DefaultConfig(testView(n, 2)), stack.Func)
		if err != nil {
			t.Fatal(err)
		}
		deliveries, casts := 0, 0
		eng.Deliver = func(int, []byte, bool) { deliveries++ }
		for len(in) > 0 {
			l, k := binary.Uvarint(in)
			if k <= 0 || l > uint64(len(in)-k) {
				return
			}
			img := append([]byte{transport.WireCompressed}, in[k:k+int(l)]...)
			in = in[k+int(l):]
			released := eng.Stats().Released
			if eng.Packet(img) && (len(img) < 3 || binary.LittleEndian.Uint16(img[1:3]) != orderID) {
				casts++
			}
			if d := eng.Stats().Released - released; d > maxRun {
				t.Fatalf("one arrival released %d casts, more than a run can name", d)
			}
			if deliveries > casts {
				t.Fatalf("%d deliveries from %d arrivals that were not order runs", deliveries, casts)
			}
		}
	})
}

// imageSeq encodes a sequence of wire images as FuzzStackEnginePacket
// reads them: each one's length (uvarint), then the image.
func imageSeq(imgs ...[]byte) []byte {
	var out []byte
	for _, img := range imgs {
		out = binary.AppendUvarint(out, uint64(len(img)))
		out = append(out, img...)
	}
	return out
}

// FuzzStackEnginePacket feeds a plain member (no compiled path: every
// compressed arrival is rebuilt by the signature table) of a 3-member
// 10-layer group a sequence of wire images, seeded with what such a
// member genuinely receives: compressed unordered and stamped casts,
// order runs, data sends, acknowledgments and retransmissions, and the
// full images of the shapes no signature covers. Whatever the bytes, the
// engine must not panic, and it must not deliver more messages than
// arrived other than as order runs.
func FuzzStackEnginePacket(f *testing.F) {
	const n = 3
	var (
		engs  [n]*Engine
		net   = &testNet{n: n, sent: make([]int, n)}
		toTwo [][]byte
		lose  bool
	)
	for m := range engs {
		eng, err := NewStackEngine(layers.Stack10(), layer.DefaultConfig(testView(n, m)), stack.Func)
		if err != nil {
			f.Fatal(err)
		}
		eng.SendWire = func(cast bool, dst int, wire []byte) {
			if lose {
				lose = false
				return
			}
			net.send(m, cast, dst, wire)
		}
		engs[m] = eng
	}
	drain := func() {
		for {
			net.drain(func(to int, wire []byte) {
				if to == 2 {
					toTwo = append(toTwo, wire)
				}
				engs[to].Packet(wire)
			})
			for _, e := range engs {
				e.Submit(event.BurstEndEv())
			}
			if len(net.q) == 0 {
				return
			}
		}
	}
	for k := range 3 {
		engs[1].Cast([]byte{'u', byte(k)})
		engs[0].Cast([]byte{'s', byte(k)})
		drain()
	}
	for k := range 6 {
		lose = k == 2 // a gap for the sweep to fill
		engs[0].Send(2, []byte{'d', byte(k)})
		engs[2].Send(0, []byte{'a', byte(k)})
		drain()
	}
	for sweep := range 12 {
		for _, e := range engs {
			e.Timer(int64(sweep+1) * 1e6)
		}
		drain()
	}
	st := engs[0].Stats()
	if st.DataCompressed == 0 || st.PathHits[PathDnCtrlAck] == 0 || st.PathHits[PathDnCtrlRetrans] == 0 || st.PathHits[PathDnCtrlOrder] == 0 {
		f.Fatalf("the harvest lacks a compressed data message, acknowledgment, retransmission or order run: %+v", st)
	}
	var orderID uint16
	for _, sc := range engs[0].exit {
		if sc.pid == PathDnCtrlOrder {
			orderID = sc.id
		}
	}
	f.Add(imageSeq(toTwo...))
	reversed := make([][]byte, len(toTwo))
	for i, img := range toTwo {
		reversed[len(toTwo)-1-i] = img
	}
	f.Add(imageSeq(reversed...))
	for _, img := range toTwo {
		f.Add(imageSeq(img, img))
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		eng, err := NewStackEngine(layers.Stack10(), layer.DefaultConfig(testView(n, 2)), stack.Func)
		if err != nil {
			t.Fatal(err)
		}
		deliveries, arrivals := 0, 0
		eng.Deliver = func(int, []byte, bool) { deliveries++ }
		for len(in) > 0 {
			l, k := binary.Uvarint(in)
			if k <= 0 || l > uint64(len(in)-k) {
				return
			}
			img := in[k : k+int(l)]
			in = in[k+int(l):]
			if eng.Packet(img) && (len(img) < 3 || img[0] != transport.WireCompressed || binary.LittleEndian.Uint16(img[1:3]) != orderID) {
				arrivals++
			}
			if deliveries > arrivals {
				t.Fatalf("%d deliveries from %d arrivals that were not order runs", deliveries, arrivals)
			}
		}
	})
}
