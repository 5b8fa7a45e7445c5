package netsim

// Regression tests for the delivery bugs the fault-injection substrate
// itself had: buffer aliasing across receivers, vanishing packets in the
// accounting, and the island-0 partition hole. The LossyNetwork is what
// every reliability layer is verified against, so its own correctness is
// load-bearing.

import (
	"fmt"
	"math/rand"
	"testing"

	"ensemble/internal/event"
)

// TestCastReceiversDoNotShareBuffers: transports decode in place, so a
// receiver that mutates its packet must not affect any other receiver.
func TestCastReceiversDoNotShareBuffers(t *testing.T) {
	got := map[event.Addr][]byte{}
	c := wired(1, Profile{Latency: 1000}, 4, func(to event.Addr, p Packet) {
		// Simulate an in-place decode: scribble over the buffer, then
		// record it.
		for i := range p.Data {
			p.Data[i] = byte(to)
		}
		got[to] = p.Data
	})
	c.eps[0].Cast(1, []byte{0xAA, 0xAA, 0xAA})
	c.Run(int64(1e6))
	if len(got) != 3 {
		t.Fatalf("delivered to %d receivers, want 3", len(got))
	}
	for a, data := range got {
		for _, b := range data {
			if b != byte(a) {
				t.Fatalf("receiver %d's buffer was scribbled by another receiver: % x", a, data)
			}
		}
	}
}

// TestDuplicateDeliveryDoesNotShareBuffer: a DupProb duplicate reaches
// the same endpoint as the original; decoding the first in place must
// not corrupt the second.
func TestDuplicateDeliveryDoesNotShareBuffer(t *testing.T) {
	var seen [][]byte
	c := wired(5, Profile{Latency: 10, DupProb: 1.0}, 2, func(_ event.Addr, p Packet) {
		seen = append(seen, append([]byte(nil), p.Data...))
		for i := range p.Data {
			p.Data[i] = 0xFF // in-place decode scribble
		}
	})
	c.eps[0].Send(1, 2, []byte{1, 2, 3})
	c.Run(int64(1e6))
	if len(seen) != 2 {
		t.Fatalf("delivered %d copies, want 2 (DupProb=1)", len(seen))
	}
	for i, data := range seen {
		if data[0] != 1 || data[1] != 2 || data[2] != 3 {
			t.Fatalf("delivery %d corrupted by the other copy's decode: % x", i, data)
		}
	}
}

// TestStatsInvariant: after the simulator drains, every transmission is
// accounted for — Sent + Duplicated == Delivered + Dropped — under
// loss, duplication, partitions, and mid-flight detaches, whether the
// packets stay on one shard or cross between three.
func TestStatsInvariant(t *testing.T) {
	profiles := map[string]Profile{
		"perfect":   {Latency: 1000},
		"loss":      {Latency: 1000, LossProb: 0.3},
		"dup":       {Latency: 1000, DupProb: 0.4},
		"loss+dup":  {Latency: 5000, Jitter: 20_000, LossProb: 0.2, DupProb: 0.3},
		"lossmodel": Lossy(0.25),
	}
	for name, profile := range profiles {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				c := wired(11, profile, 5, func(event.Addr, Packet) {})
				c.SetShards(shards)
				n := c.Net()
				rng := rand.New(rand.NewSource(99))
				for i := 0; i < 2000; i++ {
					switch i {
					case 500:
						n.Partition([]event.Addr{1, 2}, []event.Addr{3, 4}) // 5 unlisted: isolated
					case 1000:
						n.SetFilter(nil)
					case 1500:
						n.Detach(4) // in-flight packets to 4 must be counted dropped
					}
					from := c.eps[rng.Intn(len(c.eps))]
					if rng.Intn(2) == 0 {
						from.Cast(from.Addr(), []byte{byte(i)})
					} else if to := c.eps[rng.Intn(len(c.eps))]; to != from {
						from.Send(from.Addr(), to.Addr(), []byte{byte(i)})
					}
					c.Run(c.Sim().Now() + int64(rng.Intn(3000)))
				}
				c.Run(int64(1e15)) // drain everything in flight
				st := n.Stats()
				if st.Delivered+st.Dropped != st.Sent+st.Duplicated {
					t.Fatalf("accounting leak: Sent=%d Dup=%d Delivered=%d Dropped=%d (missing %d)",
						st.Sent, st.Duplicated, st.Delivered, st.Dropped,
						st.Sent+st.Duplicated-st.Delivered-st.Dropped)
				}
				if st.Sent == 0 || st.Delivered == 0 {
					t.Fatalf("degenerate run: %+v", st)
				}
			})
		}
	}
}

// TestPartitionUnlistedIsolated: endpoints not named in any island are
// isolated — they reach no one, and crucially not each other (they all
// used to share implicit island 0).
func TestPartitionUnlistedIsolated(t *testing.T) {
	delivered := map[event.Addr]int{}
	c := wired(1, Profile{Latency: 100}, 4, func(to event.Addr, _ Packet) { delivered[to]++ })
	c.Net().Partition([]event.Addr{1, 2}) // 3 and 4 unlisted
	c.eps[2].Send(3, 4, []byte("x"))      // unlisted -> unlisted: must not flow
	c.eps[3].Send(4, 3, []byte("x"))
	c.eps[2].Send(3, 1, []byte("x")) // unlisted -> listed: must not flow
	c.eps[0].Send(1, 3, []byte("x")) // listed -> unlisted: must not flow
	c.eps[0].Send(1, 2, []byte("x")) // same island: flows
	c.Run(int64(1e6))
	if delivered[3] != 0 || delivered[4] != 0 || delivered[1] != 0 {
		t.Fatalf("unlisted endpoints reachable: %v", delivered)
	}
	if delivered[2] != 1 {
		t.Fatalf("same-island traffic blocked: %v", delivered)
	}
	st := c.Net().Stats()
	if st.Dropped != 4 {
		t.Fatalf("Dropped = %d, want 4", st.Dropped)
	}
}
