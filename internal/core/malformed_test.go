package core

// Malformed-wire regression tests: a member fed garbage off the network
// must count the packet stray and carry on — never panic, never slice
// with the bogus offset binary.Uvarint reports for truncated or
// overflowing varints.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

func TestMalformedPacketsCountedStray(t *testing.T) {
	for _, optimized := range []bool{false, true} {
		name := "stack"
		if optimized {
			name = "optimized"
		}
		t.Run(name, func(t *testing.T) {
			build := func() *ClusterGroup {
				var g *ClusterGroup
				var err error
				if optimized {
					g, err = NewOptimizedClusterGroup(2, netsim.Profile{Latency: 1000}, 3, layers.Stack10(), stack.Func, nil)
				} else {
					g, err = NewClusterGroup(2, netsim.Profile{Latency: 1000}, 3, layers.Stack10(), stack.Imp, nil)
				}
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			g := build()
			m := g.Members[0]
			epoch := appendUvarint(nil, uint64(m.view.ID.Seq))
			cases := map[string][]byte{
				"empty":            {},
				"truncated-epoch":  {0x80}, // continuation bit set, no next byte
				"overflowed-epoch": bytes.Repeat([]byte{0x80}, 11),
				"wrong-epoch":      appendUvarint(nil, 99),
				"missing-tag":      epoch,
				"truncated-tag":    append(append([]byte(nil), epoch...), 0x80),
				"wrong-tag":        appendUvarint(append([]byte(nil), epoch...), 0xdeadbeef),
			}
			before := m.Stats().StrayPackets
			n := int64(0)
			for cname, data := range cases {
				m.receive(netsim.Packet{From: 2, To: 1, Data: data})
				n++
				if got := m.Stats().StrayPackets; got != before+n {
					t.Fatalf("%s: StrayPackets = %d, want %d", cname, got, before+n)
				}
			}
			// A first byte of 0x00 reads as the control epoch, whatever
			// the datagram was: each of these is one stray packet, and
			// neither the view, the merge state nor the network sees it.
			grant := func(listed, present int) []byte {
				pkt := appendUvarint([]byte{0x00, ctrlGrant}, 7) // seq
				pkt = appendUvarint(pkt, 2)                      // leader
				pkt = appendUvarint(pkt, uint64(listed))
				for a := 1; a <= present; a++ {
					pkt = appendUvarint(pkt, uint64(a))
				}
				return pkt
			}
			control := map[string][]byte{
				"control-empty":        {0x00},
				"control-unknown-kind": {0x00, 0x7f, 0x01, 0x02},
				// What a frame's garbage tail looks like when it starts at a
				// malformed full sub: the 0x00 flag, a length running past
				// the end, some bytes.
				"full-sub-tail":       {0x00, 0x20, 'a', 'b', 'c'},
				"truncated-grant":     grant(3, 1),
				"empty-grant":         grant(0, 0),
				"truncated-probe":     {0x00, ctrlProbe, 0x05, 0x02, 0x02, 0x01},
				"truncated-grant-ack": {0x00, ctrlGrantAck, 0x80},
			}
			type mergeState struct {
				view    event.ViewID
				members []event.Addr
				known   map[event.Addr]bool
				seq     int64
				grant   []event.Addr
				sent    int64
			}
			snapshot := func() mergeState {
				known := make(map[event.Addr]bool, len(m.known))
				for a, ok := range m.known {
					known[a] = ok
				}
				return mergeState{m.view.ID, append([]event.Addr(nil), m.view.Members...), known,
					m.grantSeq, m.grantMembers, g.Cluster.Net().Stats().Sent}
			}
			state := snapshot()
			for cname, data := range control {
				m.receive(netsim.Packet{From: 2, To: 1, Data: data})
				n++
				if got := m.Stats().StrayPackets; got != before+n {
					t.Fatalf("%s: StrayPackets = %d, want %d", cname, got, before+n)
				}
				if now := snapshot(); !reflect.DeepEqual(now, state) {
					t.Fatalf("%s: member state moved: %+v, was %+v", cname, now, state)
				}
			}
			// A well-formed full image under the right epoch and view tag
			// whose headers are not this stack's: every layer pops one
			// header and asserts its type, so these used to panic the
			// member. The engine cannot decode them, and the member counts
			// them stray whether or not it runs the bypass.
			for cname, image := range foreignImages(t) {
				data := appendUvarint(append([]byte(nil), epoch...), m.viewTag)
				m.receive(netsim.Packet{From: 2, To: 1, Data: append(data, image...)})
				n++
				if got := m.Stats().StrayPackets; got != before+n {
					t.Fatalf("%s: StrayPackets = %d, want %d", cname, got, before+n)
				}
				if now := snapshot(); !reflect.DeepEqual(now, state) {
					t.Fatalf("%s: member state moved: %+v, was %+v", cname, now, state)
				}
			}
			// This stack's own cast, whole, but typed as a send: its
			// headers are variants a send never carries, which the layers
			// used to assert on. The first layer to meet one drops the
			// message; nothing is delivered and nothing moves.
			data := appendUvarint(append([]byte(nil), epoch...), m.viewTag)
			castLeaving(t, layers.Stack10(), func(ev *event.Event) {
				ev.Type = event.ESend
				data = append(data, wireImage(t, ev)...)
			})
			delivered := m.Stats()
			m.receive(netsim.Packet{From: 2, To: 1, Data: data})
			if now := m.Stats(); now.CastsDelivered != delivered.CastsDelivered || now.SendsDelivered != delivered.SendsDelivered {
				t.Fatalf("cast-typed-send: delivered: %+v, was %+v", now, delivered)
			}
			if now := snapshot(); !reflect.DeepEqual(now, state) {
				t.Fatalf("cast-typed-send: member state moved: %+v, was %+v", now, state)
			}
			// This stack's own cast, whole, typed as every event type but
			// the two that are ever marshaled. Bottom passes non-data events
			// through, so an Exit used to make the member exit and a Block
			// to block the sequencer's total layer. Each is dropped and
			// counted, and nothing moves.
			for typ := 0; typ < 256; typ++ {
				if typ == int(event.ECast) || typ == int(event.ESend) {
					continue
				}
				data := appendUvarint(append([]byte(nil), epoch...), m.viewTag)
				castLeaving(t, layers.Stack10(), func(ev *event.Event) {
					ev.Type = event.Type(typ)
					data = append(data, wireImage(t, ev)...)
				})
				delivered := m.Stats()
				m.receive(netsim.Packet{From: 2, To: 1, Data: data})
				n++
				if got := m.Stats().StrayPackets; got != before+n {
					t.Fatalf("cast typed %v: StrayPackets = %d, want %d", event.Type(typ), got, before+n)
				}
				if now := m.Stats(); m.Exited() || now.CastsDelivered != delivered.CastsDelivered || now.PacketsOut != delivered.PacketsOut {
					t.Fatalf("cast typed %v: exited %t, stats %+v, were %+v", event.Type(typ), m.Exited(), now, delivered)
				}
				if now := snapshot(); !reflect.DeepEqual(now, state) {
					t.Fatalf("cast typed %v: member state moved: %+v, was %+v", event.Type(typ), now, state)
				}
			}
			// A well-formed control message nobody is waiting for is not stray.
			m.receive(netsim.Packet{From: 2, To: 1, Data: []byte{0x00, ctrlGrantAck, 0x63}})
			if got := m.Stats().StrayPackets; got != before+n {
				t.Fatalf("unawaited grant ack: StrayPackets = %d, want %d", got, before+n)
			}
			// The member is still live after the garbage, and the group runs
			// exactly as a twin that never saw any: a sequencer blocked by
			// an off-wire Block announces its own casts instead of stamping
			// them.
			twin := build()
			for _, g := range []*ClusterGroup{g, twin} {
				g.Members[0].Cast([]byte("still alive"))
				g.Run(int64(1e7))
			}
			if got, want := m.Stats().PacketsOut, twin.Members[0].Stats().PacketsOut; got == 0 || got != want {
				t.Fatalf("member sent %d packets after malformed input, its twin %d", got, want)
			}
			if got, want := g.Members[1].Stats().CastsDelivered, twin.Members[1].Stats().CastsDelivered; got != want {
				t.Fatalf("peer delivered %d casts after malformed input, its twin %d", got, want)
			}
		})
	}
}

// wireImage marshals ev as rank 1 sends it.
func wireImage(t *testing.T, ev *event.Event) []byte {
	t.Helper()
	var w transport.Writer
	if err := transport.Marshal(ev, 1, &w); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), w.Bytes()...)
}

// castLeaving runs one cast down a stack of the named layers and hands
// it to shape where it leaves the bottom.
func castLeaving(t *testing.T, names []string, shape func(ev *event.Event)) {
	t.Helper()
	v := event.NewView("g", 1, []event.Addr{1, 2}, 1)
	stk, err := stack.Build(names, layer.DefaultConfig(v), stack.Func, stack.Callbacks{Net: func(ev *event.Event) {
		if ev.Type == event.ECast {
			shape(ev)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	stk.SubmitDn(event.InitEv(v))
	stk.SubmitDn(event.CastEv([]byte("from another stack")))
}

// foreignImages returns well-formed full wire images from rank 1 that no
// 10-layer member can have sent: a cast with no headers at all, the
// 4-layer stack's cast (its top header sits where mflow expects its
// own), a 10-layer cast that lost its bottom header, and the 10-layer
// cast cut short to its k outermost headers, for every k — a valid
// suffix of the stack ending in a header its layer passes up
// ([mnak:Data, bottom] got past mnak and popped an empty stack at
// pt2pt).
func foreignImages(t *testing.T) map[string][]byte {
	t.Helper()
	images := map[string][]byte{}
	bare := event.CastEv([]byte("no headers"))
	images["empty-header-stack"] = wireImage(t, bare)
	event.Free(bare)
	castLeaving(t, layers.Stack4(), func(ev *event.Event) { images["foreign-header-stack"] = wireImage(t, ev) })
	castLeaving(t, layers.Stack10(), func(ev *event.Event) {
		event.FreeHeader(ev.Msg.Pop())
		images["unanchored-header-stack"] = wireImage(t, ev)
	})
	depth := len(layers.Stack10())
	castLeaving(t, layers.Stack10(), func(ev *event.Event) {
		// Headers[0] is the innermost: each round drops it and keeps the
		// outermost k.
		for k := depth - 1; k >= 1; k-- {
			event.FreeHeader(ev.Msg.Headers[0])
			ev.Msg.Headers = ev.Msg.Headers[1:]
			images[fmt.Sprintf("short-header-stack-%d", k)] = wireImage(t, ev)
		}
	})
	if len(images) != 3+depth-1 {
		t.Fatalf("built %d foreign images, want %d", len(images), 3+depth-1)
	}
	return images
}
