package netsim

import (
	"math"
	"testing"

	"ensemble/internal/event"
)

// wired builds a cluster of n endpoints at addresses 1..n, each attached
// with recv (told which endpoint the packet reached). The tests below
// transmit from the driving goroutine between runs, through c.eps[i].
func wired(seed int64, profile Profile, n int, recv func(to event.Addr, p Packet)) *Cluster {
	c := NewCluster(seed, profile)
	for i := 0; i < n; i++ {
		ep := c.NewEndpoint(event.Addr(i + 1))
		ep.Attach(ep.Addr(), func(p Packet) { recv(ep.Addr(), p) })
	}
	return c
}

// TestAtVirtualOrdering: instrumentation callbacks run in time order,
// ties in insertion order, a past time is clamped to now, and a run
// leaves the clock at its deadline.
func TestAtVirtualOrdering(t *testing.T) {
	c := NewCluster(1, Profile{})
	var got []int
	c.AtVirtual(30, func() { got = append(got, 3) })
	c.AtVirtual(10, func() { got = append(got, 1) })
	c.AtVirtual(20, func() {
		got = append(got, 2)
		c.AtVirtual(5, func() { got = append(got, 5) }) // in the past: runs at now
	})
	c.AtVirtual(20, func() { got = append(got, 4) })
	c.Run(100)
	want := []int{1, 2, 4, 5, 3}
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if c.Sim().Now() != 100 {
		t.Fatalf("Now = %d after Run(100)", c.Sim().Now())
	}
}

func TestFifoWithoutJitter(t *testing.T) {
	var got []int
	c := wired(3, Profile{Latency: 1000}, 2, func(to event.Addr, p Packet) {
		if to == 2 {
			got = append(got, int(p.Data[0]))
		}
	})
	for i := 0; i < 100; i++ {
		c.eps[0].Send(1, 2, []byte{byte(i)})
	}
	c.Run(int64(1e9))
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery %d = %d: reordering on a jitter-free link", i, v)
		}
	}
	if len(got) != 100 {
		t.Fatalf("delivered %d/100", len(got))
	}
}

func TestLossRate(t *testing.T) {
	delivered := 0
	c := wired(5, Profile{Latency: 10, LossProb: 0.25}, 2, func(event.Addr, Packet) { delivered++ })
	const total = 20000
	for i := 0; i < total; i++ {
		c.eps[0].Send(1, 2, []byte{1})
	}
	c.Run(int64(1e9))
	// Six standard deviations of a 20000-draw binomial at p = 0.25.
	rate := 1 - float64(delivered)/total
	if math.Abs(rate-0.25) > 0.02 {
		t.Fatalf("loss rate %.3f, want ≈0.25", rate)
	}
	st := c.Net().Stats()
	if st.Dropped != int64(total-delivered) {
		t.Fatalf("stats dropped=%d, observed %d", st.Dropped, total-delivered)
	}
}

func TestDuplicationRate(t *testing.T) {
	delivered := 0
	c := wired(5, Profile{Latency: 10, DupProb: 0.5}, 2, func(event.Addr, Packet) { delivered++ })
	const total = 10000
	for i := 0; i < total; i++ {
		c.eps[0].Send(1, 2, []byte{1})
	}
	c.Run(int64(1e9))
	// Six standard deviations of a 10000-draw binomial at p = 0.5.
	extra := float64(delivered-total) / total
	if math.Abs(extra-0.5) > 0.03 {
		t.Fatalf("duplication rate %.3f, want ≈0.5", extra)
	}
	if st := c.Net().Stats(); st.Duplicated != int64(delivered-total) {
		t.Fatalf("stats duplicated=%d, observed %d", st.Duplicated, delivered-total)
	}
}

func TestCastExcludesSender(t *testing.T) {
	counts := map[event.Addr]int{}
	c := wired(1, Profile{}, 3, func(to event.Addr, _ Packet) { counts[to]++ })
	c.eps[0].Cast(1, []byte("x"))
	c.Run(10)
	if counts[1] != 0 || counts[2] != 1 || counts[3] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestDetachDropsInFlight: a packet in flight when its endpoint drops
// off the network is not delivered, and neither is anything sent later —
// and both are on the books as dropped.
func TestDetachDropsInFlight(t *testing.T) {
	got := 0
	c := wired(1, Profile{Latency: 100}, 2, func(event.Addr, Packet) { got++ })
	c.eps[0].Send(1, 2, []byte("a"))
	c.Run(50) // committed, in flight
	c.Net().Detach(2)
	c.eps[0].Send(1, 2, []byte("b"))
	c.Run(int64(1e6))
	if got != 0 {
		t.Fatalf("detached endpoint received %d packets", got)
	}
	if st := c.Net().Stats(); st.Sent != 2 || st.Dropped != 2 {
		t.Fatalf("in-flight and late packets not counted dropped: %+v", st)
	}
}

func TestSendCopiesData(t *testing.T) {
	var seen []byte
	c := wired(1, Profile{Latency: 100}, 2, func(_ event.Addr, p Packet) { seen = p.Data })
	buf := []byte{1, 2, 3}
	c.eps[0].Send(1, 2, buf)
	buf[0] = 99 // caller reuses its buffer before delivery
	c.Run(int64(1e6))
	if seen[0] != 1 {
		t.Fatal("network aliased the caller's buffer")
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c := NewCluster(1, Profile{})
	ep := c.NewEndpoint(1)
	ep.Attach(1, func(Packet) {})
	ep.Attach(1, func(Packet) {})
}

func TestProfiles(t *testing.T) {
	if Ethernet100().Latency != 80_000 {
		t.Error("Ethernet100 latency should match the paper's ~80µs")
	}
	if VIA().Latency != 10_000 {
		t.Error("VIA latency should match the paper's ~10µs")
	}
	l := Lossy(0.2)
	if l.LossProb != 0.2 || l.Jitter == 0 {
		t.Errorf("Lossy profile: %+v", l)
	}
}
