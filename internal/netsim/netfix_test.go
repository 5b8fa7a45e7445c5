package netsim

// Regression tests for the fault-injection substrate itself: one shared
// read-only buffer per transmission, packets vanishing from the
// accounting, and the island-0 partition hole. The LossyNetwork is what
// every reliability layer is verified against, so its own correctness is
// load-bearing.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ensemble/internal/event"
)

// TestCastReceiversShareOneBuffer: a multicast is copied once, however
// many receivers it fans out to and on whichever shards they live: every
// receiver, and every duplicate, gets the same bytes from one backing
// array. A sender that rewrites its buffer right after Cast changes
// nothing delivered.
func TestCastReceiversShareOneBuffer(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for _, dup := range []float64{0, 1} {
			t.Run(fmt.Sprintf("shards=%d/dup=%g", shards, dup), func(t *testing.T) {
				var got []Packet
				c := wired(1, Profile{Latency: 1000, DupProb: dup}, 4, func(_ event.Addr, p Packet) {
					got = append(got, p)
				})
				c.SetShards(shards)
				buf := []byte{0xAA, 0xBB, 0xCC}
				c.eps[0].Cast(1, buf)
				buf[0], buf[1], buf[2] = 1, 1, 1
				c.Run(int64(1e6))
				want := 3
				if dup == 1 {
					want = 6
				}
				if len(got) != want {
					t.Fatalf("%d deliveries, want %d", len(got), want)
				}
				for _, p := range got {
					if !bytes.Equal(p.Data, []byte{0xAA, 0xBB, 0xCC}) {
						t.Fatalf("receiver %d got % x: the sender's rewrite reached it", p.To, p.Data)
					}
					if &p.Data[0] != &got[0].Data[0] {
						t.Fatalf("receiver %d got its own copy: the multicast was copied per receiver", p.To)
					}
				}
			})
		}
	}
}

// TestDuplicateSharesTheBuffer: a DupProb duplicate of a point-to-point
// send is the original's buffer again, and a sender that rewrites its
// buffer right after Send changes neither delivery.
func TestDuplicateSharesTheBuffer(t *testing.T) {
	var got [][]byte
	c := wired(5, Profile{Latency: 10, DupProb: 1.0}, 2, func(_ event.Addr, p Packet) {
		got = append(got, p.Data)
	})
	buf := []byte{1, 2, 3}
	c.eps[0].Send(1, 2, buf)
	buf[0] = 0xFF
	c.Run(int64(1e6))
	if len(got) != 2 {
		t.Fatalf("delivered %d copies, want 2 (DupProb=1)", len(got))
	}
	for i, data := range got {
		if !bytes.Equal(data, []byte{1, 2, 3}) {
			t.Fatalf("delivery %d is % x: the sender's rewrite reached it", i, data)
		}
	}
	if &got[0][0] != &got[1][0] {
		t.Fatal("the duplicate was given a buffer of its own")
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
