package layers

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// The hand bypass must agree with the plain 4-layer stack on identical
// traffic, just like the machine-generated bypass (which has its own
// equivalence suite in internal/opt).

type handRec struct {
	member, origin int
	cast           bool
	payload        string
}

func TestHandEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(55))

	var plainLog, handLog []handRec
	var plainStks [2]stack.Stack
	var hands [2]*HandEngine

	for m := 0; m < 2; m++ {
		m := m
		cfg := layer.DefaultConfig(testView(2, m))
		stk, err := stack.Build(Stack4(), cfg, stack.Imp, stack.Callbacks{
			App: func(ev *event.Event) {
				if (ev.Type == event.ECast || ev.Type == event.ESend) && ev.ApplMsg {
					plainLog = append(plainLog, handRec{m, ev.Peer, ev.Type == event.ECast, string(ev.Msg.Payload)})
				}
			},
			Net: func(ev *event.Event) {
				if ev.Type != event.ECast && ev.Type != event.ESend {
					return
				}
				var w transport.Writer
				if err := transport.Marshal(ev, m, &w); err != nil {
					t.Fatal(err)
				}
				other, err := transport.Unmarshal(w.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				plainStks[1-m].DeliverUp(other)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		plainStks[m] = stk

		hand, err := NewHandEngine(layer.DefaultConfig(testView(2, m)), stack.Imp)
		if err != nil {
			t.Fatal(err)
		}
		hand.Deliver = func(origin int, payload []byte, cast bool) {
			handLog = append(handLog, handRec{m, origin, cast, string(payload)})
		}
		hand.SendWire = func(cast bool, dst int, wire []byte) {
			hands[1-m].Packet(wire)
		}
		hands[m] = hand
	}

	for i := 0; i < 800; i++ {
		m := rng.Intn(2)
		payload := []byte(fmt.Sprintf("h%d", i))
		if rng.Intn(2) == 0 {
			plainStks[m].SubmitDn(event.CastEv(payload))
			hands[m].Cast([]byte(fmt.Sprintf("h%d", i)))
		} else {
			plainStks[m].SubmitDn(event.SendEv(1-m, payload))
			hands[m].Send(1-m, []byte(fmt.Sprintf("h%d", i)))
		}
		if i%19 == 18 {
			now := int64(i) * 1000
			for m := 0; m < 2; m++ {
				plainStks[m].DeliverUp(event.TimerEv(now))
				hands[m].Timer(now)
			}
		}
	}

	if !reflect.DeepEqual(plainLog, handLog) {
		n := min(len(plainLog), len(handLog))
		for i := 0; i < n; i++ {
			if plainLog[i] != handLog[i] {
				t.Fatalf("delivery %d diverges: plain %+v hand %+v", i, plainLog[i], handLog[i])
			}
		}
		t.Fatalf("delivery counts diverge: plain %d hand %d", len(plainLog), len(handLog))
	}
	if hands[0].Stats.DnBypass == 0 || hands[0].Stats.UpBypass == 0 {
		t.Fatalf("hand bypass unused: %+v", hands[0].Stats)
	}
}

// TestHandPacketDropsMalformed feeds the hand engine images no member
// sends: each used to index past the image or past per-origin state, or
// (an unknown kind) to be read as a send. Each is dropped, and the engine
// still carries the next cast.
func TestHandPacketDropsMalformed(t *testing.T) {
	var fromRank9 []byte
	stk, err := stack.Build(Stack4(), layer.DefaultConfig(testView(2, 0)), stack.Func, stack.Callbacks{Net: func(ev *event.Event) {
		var w transport.Writer
		if err := transport.Marshal(ev, 9, &w); err != nil {
			t.Fatal(err)
		}
		fromRank9 = w.Bytes()
	}})
	if err != nil {
		t.Fatal(err)
	}
	stk.SubmitDn(event.CastEv([]byte("x")))
	if fromRank9 == nil {
		t.Fatal("the 4-layer stack sent nothing")
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"c1", []byte{0xc1}},
		{"c100", []byte{0xc1, 0x00}},
		{"c1000902", []byte{0xc1, 0x00, 0x09, 0x02}},
		{"c1070102", []byte{0xc1, 0x07, 0x01, 0x02}},
		{"full-image-from-rank-9", fromRank9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			h, err := NewHandEngine(layer.DefaultConfig(testView(2, 1)), stack.Func)
			if err != nil {
				t.Fatal(err)
			}
			h.Deliver = func(origin int, payload []byte, cast bool) { got = append(got, string(payload)) }
			if h.Packet(tc.data) {
				t.Fatalf("% x decoded", tc.data)
			}
			if h.Stats.UpBypass+h.Stats.UpFull != 0 || len(got) != 0 {
				t.Fatalf("% x reached the layers: stats %+v, delivered %q", tc.data, h.Stats, got)
			}
			if !h.Packet([]byte{0xc1, handKindCast, 0x00, 0x00, 'o', 'k'}) || len(got) != 1 || got[0] != "ok" {
				t.Fatalf("after % x: delivered %q, want the next cast", tc.data, got)
			}
		})
	}
}

// TestHandTrustAfterDeliver checks the skip-check optimization: after a
// bypass delivery, the next send skips the common-case check and still
// produces correct traffic on the common path.
func TestHandTrustAfterDeliver(t *testing.T) {
	var hands [2]*HandEngine
	var got []string
	for m := 0; m < 2; m++ {
		m := m
		h, err := NewHandEngine(layer.DefaultConfig(testView(2, m)), stack.Imp)
		if err != nil {
			t.Fatal(err)
		}
		h.TrustAfterDeliver = true
		h.Deliver = func(origin int, payload []byte, cast bool) {
			got = append(got, string(payload))
			// Ping-pong: respond to pings, through the trusted path.
			if string(payload[:4]) == "ping" && m == 1 {
				hands[1].Cast([]byte("pong" + string(payload[4:])))
			}
		}
		h.SendWire = func(cast bool, dst int, wire []byte) { hands[1-m].Packet(wire) }
		hands[m] = h
	}
	for i := 0; i < 50; i++ {
		hands[0].Cast([]byte(fmt.Sprintf("ping%04d", i)))
	}
	want := 100
	if len(got) != want {
		t.Fatalf("delivered %d messages, want %d", len(got), want)
	}
}
