package netsim

import (
	"sync"
	"testing"
	"time"

	"ensemble/internal/event"
	"ensemble/internal/transport"
)

// Malformed-datagram hardening for the UDP substrate: bit-flipped 0xB9
// headers, truncated cross-frame bodies, and stale/future generation
// tags arriving over a real socket must land in stray/garbage
// accounting (and, where the design says so, earn a resync answer) —
// never a panic, never a mis-delivery, and the endpoint must stay live
// for the traffic that follows.

// udpPair builds two cross-registered loopback endpoints with recv
// collectors on both sides and their Run loops started. Close via the
// returned cleanup (also registered on t).
func udpMalPair(t *testing.T) (a, b *UDPNet, gotA, gotB func() [][]byte) {
	t.Helper()
	pa, err := NewUDPNet(1, "127.0.0.1:0", map[event.Addr]string{})
	if err != nil {
		t.Skipf("skipping: %v", err)
	}
	pb, err := NewUDPNet(2, "127.0.0.1:0", map[event.Addr]string{})
	if err != nil {
		pa.Close()
		t.Skipf("skipping: %v", err)
	}
	peers := map[event.Addr]string{1: pa.LocalAddr(), 2: pb.LocalAddr()}
	pa.Close()
	pb.Close()
	a, err = NewUDPNet(1, peers[1], peers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err = NewUDPNet(2, peers[2], peers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })

	var mu sync.Mutex
	var recvA, recvB [][]byte
	a.Attach(1, func(p Packet) {
		mu.Lock()
		recvA = append(recvA, append([]byte(nil), p.Data...))
		mu.Unlock()
	})
	b.Attach(2, func(p Packet) {
		mu.Lock()
		recvB = append(recvB, append([]byte(nil), p.Data...))
		mu.Unlock()
	})
	go a.Run()
	go b.Run()
	snap := func(s *[][]byte) func() [][]byte {
		return func() [][]byte {
			mu.Lock()
			defer mu.Unlock()
			return append([][]byte(nil), *s...)
		}
	}
	return a, b, snap(&recvA), snap(&recvB)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// xchain generates real cross-frame wire images: a Batcher with the
// member's cross-frame configuration flushing one point-to-point frame
// per wire to destination 2, captured instead of transmitted. Frame i
// carries (gen 1, frameSeq i+1); frame 0 is the generation's anchor
// (full first sub), later frames ride the cross-frame shadow.
type capSink struct{ frames [][]byte }

func (c *capSink) Send(from, to event.Addr, data []byte) {
	c.frames = append(c.frames, append([]byte(nil), data...))
}
func (c *capSink) Cast(from event.Addr, data []byte) {
	c.frames = append(c.frames, append([]byte(nil), data...))
}

func xchain(t *testing.T, n int) [][]byte {
	t.Helper()
	sink := &capSink{}
	bt := transport.NewBatcher(sink, 1, transport.DefaultFrameBytes)
	for i := 0; i < n; i++ {
		// A plausible wire: only one mid-payload byte varies per frame,
		// so consecutive subs share a long prefix (and a tail) and the
		// cross-frame shadow actually produces delta-first frames.
		bt.Send(2, []byte{0x08, 0x07, 0x03, 0x01, 0xaa, 0xbb, 0xcc, byte(i), 0xdd, 0xee})
		bt.FlushFor(transport.FlushBarrier)
	}
	if len(sink.frames) != n {
		t.Fatalf("xchain: %d frames from %d flushes", len(sink.frames), n)
	}
	for i, f := range sink.frames {
		if !transport.IsFrame(f) {
			t.Fatalf("xchain frame %d does not carry the cross-frame magic: % x", i, f)
		}
	}
	return sink.frames
}

// TestUDPXFrameBitFlippedHeader: a 0xB9 frame whose header fails the
// strict parse (reserved flag bit set, or truncated before the frameSeq
// varint) surfaces whole as one garbage sub — stray accounting upstream
// — seeds no mirror, earns no resync, and leaves the endpoint live.
func TestUDPXFrameBitFlippedHeader(t *testing.T) {
	a, b, _, gotB := udpMalPair(t)
	frames := xchain(t, 1)

	flipped := append([]byte(nil), frames[0]...)
	flipped[1] |= 0x80 // reserved flag bit: parseXHeader must reject
	a.Send(1, 2, flipped)
	truncated := append([]byte(nil), frames[0][:3]...) // dies inside the header varints
	a.Send(1, 2, truncated)

	waitFor(t, "2 garbage subs", func() bool { return len(gotB()) >= 2 })
	got := gotB()
	if string(got[0]) != string(flipped) || string(got[1]) != string(truncated) {
		t.Fatalf("corrupted frames not surfaced whole:\n got0 % x\nwant0 % x\n got1 % x\nwant1 % x",
			got[0], flipped, got[1], truncated)
	}
	// No mirror was seeded and no resync answered: a corrupted header
	// cannot be trusted to name a chain.
	if s := b.Stats(); s.GenMisses != 0 || s.Resyncs != 0 || s.StaleGenFrames != 0 {
		t.Fatalf("corrupted headers moved generation counters: %+v", s)
	}
	// The endpoint is still live for well-formed traffic.
	a.Send(1, 2, []byte("still-alive"))
	waitFor(t, "post-corruption delivery", func() bool {
		g := gotB()
		return len(g) >= 3 && string(g[len(g)-1]) == "still-alive"
	})
}

// TestUDPXFrameTruncatedBaseRef: a cross-frame in exact continuity with
// the mirror but truncated mid-body breaks the chain — the receiver
// invalidates the mirror, counts the generation miss, and answers with
// a real resync datagram the sender's socket observes.
func TestUDPXFrameTruncatedBaseRef(t *testing.T) {
	a, b, gotA, gotB := udpMalPair(t)
	frames := xchain(t, 2)

	a.Send(1, 2, frames[0]) // anchor: mirror adopts (gen 1, seq 1)
	waitFor(t, "anchor delivery", func() bool { return len(gotB()) >= 1 })

	cut := append([]byte(nil), frames[1][:5]...) // valid header, body truncated
	a.Send(1, 2, cut)

	waitFor(t, "gen-miss accounting", func() bool {
		s := b.Stats()
		return s.GenMisses >= 1 && s.Resyncs >= 1
	})
	// The resync is a raw control datagram, delivered to the sender
	// outside the frame path.
	waitFor(t, "resync packet at sender", func() bool {
		for _, p := range gotA() {
			if transport.IsResync(p) {
				if cast, gen, ok := transport.ParseResync(p); ok && !cast && gen == 1 {
					return true
				}
			}
		}
		return false
	})
}

// TestUDPXFrameStaleAndFutureGenerations: a pre-bump straggler (older
// generation than the mirror) is stale — surfaced whole as garbage,
// counted, never answered — while delta-first frames tagged with a
// future generation park in the reorder stash until the nag threshold,
// then report generation misses and earn resyncs.
func TestUDPXFrameStaleAndFutureGenerations(t *testing.T) {
	a, b, gotA, gotB := udpMalPair(t)
	frames := xchain(t, 3)

	// Adopt generation 2 first: a fresh chain's anchor, rewritten from
	// the gen-1 anchor (both varints are single-byte at these values).
	gen2 := append([]byte(nil), frames[0]...)
	gen2[2] = 2 // gen 1 -> 2
	a.Send(1, 2, gen2)
	waitFor(t, "gen-2 anchor delivery", func() bool { return len(gotB()) >= 1 })

	// The gen-1 anchor is now a pre-bump straggler: stale, surfaced
	// whole, no resync.
	a.Send(1, 2, frames[0])
	waitFor(t, "stale-generation accounting", func() bool { return b.Stats().StaleGenFrames >= 1 })
	if s := b.Stats(); s.GenMisses != 0 || s.Resyncs != 0 {
		t.Fatalf("stale straggler was answered: %+v", s)
	}
	got := gotB()
	if string(got[len(got)-1]) != string(frames[0]) {
		t.Fatalf("stale frame not surfaced whole: % x", got[len(got)-1])
	}

	// Future generation, delta-first subs: frames[1] and frames[2] ride
	// the cross-frame shadow, so with their headers rewritten to gen 9
	// they cannot decode and must park in the stash; past the nag
	// threshold every further arrival is a generation miss.
	for i, seq := range []byte{5, 6, 7} {
		src := frames[1+(i%2)]
		f := append([]byte(nil), src...)
		f[2] = 9   // gen 1 -> 9
		f[3] = seq // distinct frameSeqs so the stash actually grows
		a.Send(1, 2, f)
	}
	waitFor(t, "future-generation nag", func() bool {
		s := b.Stats()
		return s.GenMisses >= 1 && s.Resyncs >= 1
	})
	waitFor(t, "future-generation resync at sender", func() bool {
		for _, p := range gotA() {
			if cast, gen, ok := transport.ParseResync(p); ok && !cast && gen == 9 {
				return true
			}
		}
		return false
	})
}
