package transport

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"ensemble/internal/event"
)

// TestGoldenProductionFrames pins the bytes a production-configured
// Batcher (epoch-prefixed cross-frame chains, the owner's clock wired
// in) puts on the wire for one fixed sequence of casts and sends:
// compressed data wires on the cast chain with entry-end and barrier
// flush points (some of which hold), an opaque control wire, a wire
// past the frame budget, a generation bump, and enough frames on one
// point-to-point chain to cross an xAnchorEvery anchor. Every frame
// handed to the sink must match testdata/golden_frames.hex exactly, and
// a fresh receive link must give the appended wires back byte for byte.
// Any refactor of the send path that moves a production byte fails here.
func TestGoldenProductionFrames(t *testing.T) {
	sink := &frameSink{}
	clk := &fakeClock{}
	b := productionBatcher(sink, 1, clk.now)

	prefix := []uint64{4, 0x1D6E57}
	var wires []sentWire
	cast := func(w []byte) { b.Cast(w); wires = append(wires, sentWire{cast: true, data: w}) }
	send := func(to event.Addr, w []byte) { b.Send(to, w); wires = append(wires, sentWire{to: to, data: w}) }

	// Data casts 40µs apart: the second entry-end finds a fast chain and
	// holds; the barrier 3ms later has aged the frame out.
	for i := 0; i < 3; i++ {
		cast(cwire(prefix, 0x0107, 1, int64(100+i), 0xA0, byte(i), 0, 0, 0, 0, 0, 0x5A))
		clk.t += 40_000
		b.FlushFor(FlushEntryEnd)
	}
	cast(cwire(prefix, 0x0107, 1, 103, 0xA0, 3, 0, 0, 0, 0, 0, 0x5A))
	clk.t += 3_000_000
	b.FlushFor(FlushBarrier)

	// An opaque control wire (full-format image: the field parser has no
	// model of it) to peer 2, twice — the second rides the shared prefix.
	ctl := append([]byte{4, 0xD7, 0xDC, 0x75, 0x00, 0x02, 0x09, 's', 'u', 's', 'p', 'e', 'c', 't'}, 1, 2, 3, 4)
	send(2, ctl)
	ctl2 := append([]byte(nil), ctl...)
	ctl2[len(ctl2)-1] = 9
	send(2, ctl2)
	b.FlushFor(FlushEntryEnd)

	// A wire past the frame budget: size flush, alone in its frame.
	big := cwire(prefix, 0x0107, 1, 104, bytes.Repeat([]byte{0xEE, 0x11, 0x77}, 500)...)
	cast(big)

	// A view install: every chain restarts in a new generation.
	b.BumpGenerations()
	prefix[0] = 5
	cast(cwire(prefix, 0x0107, 1, 0, 0xB0))
	b.Flush()

	// One point-to-point chain long enough to cross an anchor: frames
	// 2..16 ride the cross-frame base, frame 17 is the full-first anchor.
	for i := 0; i < xAnchorEvery+3; i++ {
		send(3, cwire(prefix, 0x0203, 1, int64(7+i), byte(i), 0xC3))
		if i%5 == 4 {
			send(3, cwire(prefix, 0x0203, 1, int64(7+i), byte(i), 0xC4))
		}
		b.Flush()
	}

	var got strings.Builder
	for _, c := range sink.calls {
		if c.data[0] != 0xB9 {
			t.Fatalf("frame magic %#x, want 0xb9", c.data[0])
		}
		if c.cast {
			fmt.Fprintf(&got, "cast %s\n", hex.EncodeToString(c.data))
		} else {
			fmt.Fprintf(&got, "to=%d %s\n", c.to, hex.EncodeToString(c.data))
		}
	}
	want, err := os.ReadFile("testdata/golden_frames.hex")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("production frames moved; got:\n%s", got.String())
	}

	// Round-trip identity through a fresh receive link at peer 3 (which
	// sees the cast chain and its own point-to-point chain) and peer 2.
	for _, to := range []event.Addr{2, 3} {
		w := NewFrameWalker(EpochPrefixUvarints, true)
		var subs [][]byte
		for _, c := range sink.calls {
			if c.cast || c.to == to {
				w.WalkLink(1, to, c.data, func(sub []byte) { subs = append(subs, sub) })
			}
		}
		var sent [][]byte
		for _, sw := range wires {
			if sw.cast || sw.to == to {
				sent = append(sent, sw.data)
			}
		}
		wantSubs(t, subs, sent)
	}
}

type sentWire struct {
	cast bool
	to   event.Addr
	data []byte
}
