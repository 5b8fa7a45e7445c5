package core

// Wire-batching tests at the group-runtime level: members emit framed
// (coalesced) data packets, the network substrates unpack them, and
// malformed framing lands in the same stray-packet accounting as any
// other garbage (mirroring malformed_test.go).

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// frameHdr starts a hand-built frame: point-to-point chain, generation
// 1, frame 1. appendSub adds one full sub.
func frameHdr() []byte { return []byte{transport.FrameMagic, 0x00, 0x01, 0x01} }

func appendSub(frame, sub []byte) []byte {
	frame = append(frame, 0x00)
	frame = binary.AppendUvarint(frame, uint64(len(sub)))
	return append(frame, sub...)
}

// TestBatchedFrameStrayEdgeCases: a frame whose sub-packets are
// malformed — or whose framing itself is malformed (truncated length
// prefix, zero-length sub, declared length overrunning the buffer) —
// must surface as stray packets at the member, never panic, never
// disturb clean traffic.
func TestBatchedFrameStrayEdgeCases(t *testing.T) {
	for _, optimized := range []bool{false, true} {
		name := "stack"
		if optimized {
			name = "optimized"
		}
		t.Run(name, func(t *testing.T) {
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
			m, out := g.Members[0], outsider(g)
			garbage := appendUvarint(nil, 99) // wrong epoch
			cases := []struct {
				name   string
				frame  []byte
				strays int64
			}{
				{"two-garbage-subs",
					appendSub(appendSub(frameHdr(), garbage), garbage), 2},
				{"zero-length-sub",
					appendSub(frameHdr(), nil), 1},
				// The malformed subs below are shared-prefix subs (flag 0x10):
				// a garbage tail starts at the offending sub's flag byte, and
				// the member reads a leading 0x00 — a malformed *full* sub —
				// as the reserved control epoch rather than a stray.
				{"truncated-length-prefix",
					append(appendSub(frameHdr(), garbage), 0x10, 0x80), 2},
				{"overflowing-length-prefix",
					append(append(appendSub(frameHdr(), garbage), 0x10), bytes.Repeat([]byte{0x80}, 11)...), 2},
				{"declared-length-overrun",
					append(appendSub(frameHdr(), garbage), 0x10, 0x01, 100, 1, 2, 3), 2},
				{"unknown-sub-flag",
					append(appendSub(frameHdr(), garbage), 0x40, 0x01), 2},
				{"header-only", frameHdr(), 0},
				// A bare magic is a corrupt header: the whole datagram is one
				// garbage sub.
				{"magic-only", []byte{transport.FrameMagic}, 1},
			}
			for _, tc := range cases {
				before := m.Stats().StrayPackets
				out.Send(out.Addr(), m.addr, tc.frame)
				g.Run(int64(1e7))
				if got := m.Stats().StrayPackets - before; got != tc.strays {
					t.Errorf("%s: %d new strays, want %d", tc.name, got, tc.strays)
				}
			}
			// The member is still live after the garbage.
			m.Cast([]byte("still alive"))
			g.Run(int64(1e8))
			if g.Members[1].Stats().CastsDelivered == 0 {
				t.Fatal("member stopped delivering after malformed frames")
			}
		})
	}
}

// TestPt2ptSweepOneFlushPerPeer: with acknowledgments cut off, every
// housekeeping sweep retransmits the whole unacked window to the peer —
// and the batcher coalesces that burst into exactly one frame per peer
// per sweep. Stack4 keeps the sweep free of stability gossip so the
// only periodic traffic is the pt2pt retransmission burst.
func TestPt2ptSweepOneFlushPerPeer(t *testing.T) {
	g, err := NewClusterGroup(2, netsim.Profile{Latency: 1000}, 5, layers.Stack4(), stack.Imp, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := g.Members[0]
	// Drop everything addressed to member 0: acks never arrive, so its
	// unacked window stays full and every sweep retransmits all of it.
	g.Cluster.Net().SetFilter(func(from, to event.Addr) bool { return to != m.addr })
	const sends = 6
	for i := 0; i < sends; i++ {
		if err := m.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	g.Run(int64(125e6))
	before := m.Batcher().Stats()
	g.Run(int64(250e6))
	after := m.Batcher().Stats()

	flushes := after.Flushes - before.Flushes
	frames := after.Frames - before.Frames
	subs := after.SubPackets - before.SubPackets
	if flushes < 3 {
		t.Fatalf("only %d sweeps in the window", flushes)
	}
	if frames != flushes {
		t.Fatalf("%d frames over %d sweeps — want exactly one frame per peer per sweep", frames, flushes)
	}
	if subs != sends*frames {
		t.Fatalf("%d sub-packets over %d frames, want %d retransmissions per frame", subs, frames, sends)
	}
}
