package netsim

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"ensemble/internal/event"
	"ensemble/internal/transport"
)

// The premise the layers' by-reference keeping rests on: both substrates
// run their receive link in stable mode, so a sub-packet handed to a
// member — full ones aliasing the frame, rebuilt ones in
// storage of their own — is never rewritten by the walks of the frames
// that arrive after it on the same link.

// stableWires are member-shaped wires whose successors mostly ride in the
// prefix forms, so most of them are rebuilt on arrival.
func stableWires() [][]byte {
	var wires [][]byte
	for i := 0; i < 64; i++ {
		rest := bytes.Repeat([]byte{byte(i)}, 8+i%5)
		wires = append(wires, compressedWire(4, 2, 7, 1, int64(100+i), rest...))
	}
	return wires
}

// chunks splits wires into the frames a member's Batcher emits when it
// is flushed every eight: consecutive frames of one chain, each one's
// first sub encoded against the previous frame's last.
func chunks(wires [][]byte) [][][]byte {
	var out [][][]byte
	for len(wires) > 0 {
		n := min(8, len(wires))
		out = append(out, wires[:n])
		wires = wires[n:]
	}
	return out
}

// checkKept holds every retained sub to the copy taken when it surfaced
// and to the wire that was sent.
func checkKept(t *testing.T, wires, kept, copies [][]byte) {
	t.Helper()
	if len(kept) != len(wires) {
		t.Fatalf("receiver saw %d subs, want %d", len(kept), len(wires))
	}
	for i := range wires {
		if !bytes.Equal(kept[i], copies[i]) || !bytes.Equal(copies[i], wires[i]) {
			t.Fatalf("sub %d rewritten after it surfaced: % x, surfaced as % x, sent as % x", i, kept[i], copies[i], wires[i])
		}
	}
}

func TestClusterSubsStayIntact(t *testing.T) {
	var kept, copies [][]byte
	c := wired(1, Profile{Latency: 1000}, 2, func(to event.Addr, p Packet) {
		if to == 2 {
			kept = append(kept, p.Data)
			copies = append(copies, append([]byte(nil), p.Data...))
		}
	})
	wires := stableWires()
	b := transport.NewBatcher(c.eps[0], 1, 0)
	for i, frame := range chunks(wires) {
		for _, w := range frame {
			b.Send(2, w)
		}
		b.Flush()
		c.Run(int64(i+1) * 1e6)
	}
	checkKept(t, wires, kept, copies)
	if st := c.Net().Stats(); st.Frames != int64(len(wires)/8) {
		t.Fatalf("%d frames on the link, want %d", st.Frames, len(wires)/8)
	}
}

func TestUDPSubsStayIntact(t *testing.T) {
	a, b := udpPair(t)
	defer a.Close()
	defer b.Close()
	var mu sync.Mutex
	var kept, copies [][]byte
	b.Attach(2, func(p Packet) {
		mu.Lock()
		kept = append(kept, p.Data)
		copies = append(copies, append([]byte(nil), p.Data...))
		mu.Unlock()
	})
	// A member's batcher, flushed at the end of each of a's bursts.
	batch := transport.NewBatcher(a, 1, 0)
	a.SetDrainFlush(func() { batch.Flush() })
	go a.Run()
	go b.Run()
	wires := stableWires()
	for i, frame := range chunks(wires) {
		a.Do(func() {
			for _, w := range frame {
				batch.Send(2, w)
			}
		})
		// One frame at a time: the next leaves once this one has been
		// walked.
		for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			mu.Lock()
			n := len(kept)
			mu.Unlock()
			if n >= 8*(i+1) {
				break
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	checkKept(t, wires, kept, copies)
}
