package layers

import (
	"bytes"
	"runtime"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// arrivedCast is a cast from origin as mnak receives it off the wire:
// the upper layers' header under mnak's, decoded from wire, so what mnak
// keeps of it is one contiguous run of wire.
func arrivedCast(t *testing.T, origin int, seq int64, payload []byte) (*event.Event, []byte) {
	t.Helper()
	ev := event.Alloc()
	ev.Type, ev.ApplMsg = event.ECast, true
	ev.Msg.Payload = payload
	ev.Msg.Push(topHdr{})
	ev.Msg.Push(newMnakData(seq))
	var w transport.Writer
	if err := transport.Marshal(ev, origin, &w); err != nil {
		t.Fatal(err)
	}
	event.Free(ev)
	wire := w.Bytes()
	arrived, err := transport.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	return arrived, wire
}

// TestMnakKeepsOnlyOwnedArrivalsByReference: a delivered cast big enough
// for a slab of its own is kept as the arrival bytes themselves when the
// receiver owns them, and copied when the event says they are borrowed —
// a harness rewriting its buffer after delivery must not change what a
// NAK is served.
func TestMnakKeepsOnlyOwnedArrivalsByReference(t *testing.T) {
	payload := make([]byte, 3*logSlabBytes)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	for _, borrowed := range []bool{false, true} {
		st := mkState(t, Mnak, 3, 0).(*mnakState)
		ev, wire := arrivedCast(t, 1, 0, payload)
		ev.Peer, ev.Borrowed = 1, borrowed
		ups, _ := up(st, ev)
		if len(ups) != 1 || !bytes.Equal(ups[0].Msg.Payload, payload) {
			t.Fatalf("borrowed=%t: the cast was not delivered intact", borrowed)
		}
		freeAll(ups)
		kept, ok := st.logs[1].get(&st.arena, 0)
		if !ok {
			t.Fatalf("borrowed=%t: the delivered cast was not kept", borrowed)
		}
		if byRef := within(kept.Payload, wire); byRef == borrowed {
			t.Fatalf("borrowed=%t: kept by reference = %t", borrowed, byRef)
		}
		if borrowed {
			for i := range wire {
				wire[i] = 0xEE
			}
		}
		// Member 2 asks member 0 for origin 1's cast.
		nak := event.Alloc()
		nak.Dir, nak.Type, nak.Peer = event.Up, event.ESend, 2
		nak.Msg.Push(mnakNak{Origin: 1, Lo: 0, Hi: 0})
		_, dns := up(st, nak)
		if len(dns) != 1 || !bytes.Equal(dns[0].Msg.Payload, payload) {
			t.Fatalf("borrowed=%t: the retransmission does not carry the cast", borrowed)
		}
		if h, ok := dns[0].Msg.Headers[0].(topHdr); !ok || len(dns[0].Msg.Headers) != 2 {
			t.Fatalf("borrowed=%t: retransmitted under %v, want top's header under mnak's", borrowed, h)
		}
		freeAll(dns)
	}
}

// TestOneCopyAboveTheNetwork: an 8-member FUNC group casting 20 000 B
// messages over a network that copies each transmission once and hands
// every receiver that read-only copy, as the simulator does. Above that
// copy the receivers allocate one payload per delivery — frag's join —
// plus a bounded remainder: mnak keeps the fragments as the arrival
// bytes, total holds the joined message by reference.
func TestOneCopyAboveTheNetwork(t *testing.T) {
	if event.PoolDebugEnabled() {
		t.Skip("pool debugging allocates every event and header")
	}
	const members, size, rounds = 8, 20000, 4
	type packet struct {
		to   int
		data []byte
	}
	queue := make([]packet, 0, 1<<12)
	var w transport.Writer
	stks := make([]stack.Stack, members)
	remote := 0
	for r := range stks {
		r := r
		v := testView(members, r)
		stk, err := stack.Build(Stack10(), layer.DefaultConfig(v), stack.Func, stack.Callbacks{
			App: func(ev *event.Event) {
				if ev.Type == event.ECast && ev.ApplMsg && ev.Peer != r {
					remote++
				}
			},
			Net: func(ev *event.Event) {
				if !isData(ev) {
					return
				}
				if err := transport.Marshal(ev, r, &w); err != nil {
					t.Fatal(err)
				}
				data := w.Bytes()
				for to := range stks {
					if to != r && (ev.Type == event.ECast || to == ev.Peer) {
						queue = append(queue, packet{to, data})
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		stk.SubmitDn(event.InitEv(v))
		stks[r] = stk
	}
	buf := make([]byte, size)
	var before, after runtime.MemStats
	var above uint64
	for round := 0; round < rounds; round++ {
		for r, stk := range stks {
			for i := range buf {
				buf[i] = byte(round + r + i)
			}
			stk.SubmitDn(event.CastEv(buf))
		}
		// Everything the casts sent is queued; what the receivers
		// allocate from here on is above the network.
		runtime.ReadMemStats(&before)
		for i := 0; i < len(queue); i++ {
			ev, err := transport.Unmarshal(queue[i].data)
			if err != nil {
				t.Fatal(err)
			}
			stks[queue[i].to].DeliverUp(ev)
			if i == len(queue)-1 {
				// The network is quiet: every member's burst ends.
				for _, stk := range stks {
					stk.SubmitDn(event.BurstEndEv())
				}
			}
		}
		runtime.ReadMemStats(&after)
		above += after.TotalAlloc - before.TotalAlloc
		queue = queue[:0]
	}
	if want := rounds * members * (members - 1); remote != want {
		t.Fatalf("%d remote deliveries, want %d", remote, want)
	}
	// The remainder is control traffic's network copies (they leave
	// during the drain), header and event pool refills, index growth.
	const bound = 4096
	if per := above / uint64(remote); per > size+bound {
		t.Fatalf("%d B allocated per remote delivery above the network, want at most one payload (%d B) + %d B", per, size, bound)
	}
}
