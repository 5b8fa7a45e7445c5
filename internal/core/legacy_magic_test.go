package core

import (
	"fmt"
	"testing"
	"time"

	"ensemble/internal/event"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

// The retired frame formats (0xB7 classic, 0xB8 intra-frame delta) are
// not frames to the receive link any more: a datagram that starts with
// either magic must pass every substrate as one ordinary raw packet,
// land in the member's stray accounting, draw no resync, and leave the
// transmission-level books balanced.

var legacyDatagrams = []struct {
	name string
	data []byte
}{
	{"classic-frame", []byte{0xB7, 0x03, 'o', 'n', 'e', 0x03, 't', 'w', 'o'}},
	{"classic-truncated", []byte{0xB7, 0x64, 0x01, 0x02}},
	{"classic-magic-only", []byte{0xB7}},
	{"delta-frame", []byte{0xB8, 0x00, 0x03, 'o', 'n', 'e', 0x10, 0x02, 0x01, 'x'}},
	{"delta-truncated", []byte{0xB8, 0x01}},
	{"delta-magic-only", []byte{0xB8}},
}

// checkLegacyBooks asserts what one legacy datagram must have done to a
// simulated network's counters and the receiving member's.
func checkLegacyBooks(t *testing.T, name string, before, after netsim.Stats, strays, packets int64) {
	t.Helper()
	if strays != 1 || packets != 1 {
		t.Errorf("%s: %d packets in, %d strays; want exactly one stray packet", name, packets, strays)
	}
	if after.Frames != before.Frames || after.SubPackets != before.SubPackets {
		t.Errorf("%s: counted as a frame: %+v -> %+v", name, before, after)
	}
	if after.Resyncs != before.Resyncs || after.GenMisses != before.GenMisses || after.StaleGenFrames != before.StaleGenFrames {
		t.Errorf("%s: drew a link verdict: %+v -> %+v", name, before, after)
	}
	if after.Sent+after.Duplicated != after.Delivered+after.Dropped {
		t.Errorf("%s: stats invariant broken: %+v", name, after)
	}
}

func TestLegacyMagicIsStrayOverCluster(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			g, err := NewOptimizedClusterGroup(4, netsim.Profile{Latency: 1000}, 5, layers.Stack10(), stack.Func, nil)
			if err != nil {
				t.Fatal(err)
			}
			g.Cluster.SetShards(shards)
			// Stop between two 50 ms housekeeping sweeps, start-up traffic
			// long drained: the only packet in each 2 µs window below is the
			// injected one.
			g.Run(int64(110e6))
			// With two shards member 3 lives on the second, the sender on the
			// first.
			m, from := g.Members[3], g.Eps[0]
			for _, tc := range legacyDatagrams {
				before, ms := g.Cluster.Net().Stats(), m.Stats()
				from.Send(from.Addr(), m.addr, tc.data)
				g.Run(2000)
				after := m.Stats()
				checkLegacyBooks(t, tc.name, before, g.Cluster.Net().Stats(), after.StrayPackets-ms.StrayPackets, after.PacketsIn-ms.PacketsIn)
			}
			g.Members[0].Cast([]byte("still alive"))
			g.Run(int64(1e8))
			if m.Stats().CastsDelivered == 0 {
				t.Fatal("member stopped delivering after legacy datagrams")
			}
		})
	}
}

func TestLegacyMagicIsStrayOverUDP(t *testing.T) {
	probe := [2]*netsim.UDPNet{}
	peers := map[event.Addr]string{}
	for i := range probe {
		u, err := netsim.NewUDPNet(event.Addr(i+1), "127.0.0.1:0", nil)
		if err != nil {
			t.Skipf("skipping: %v", err)
		}
		probe[i] = u
		peers[event.Addr(i+1)] = u.LocalAddr()
	}
	for _, u := range probe {
		u.Close()
	}
	a, err := netsim.NewUDPNet(1, peers[1], peers)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := netsim.NewUDPNet(2, peers[2], peers)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	m, err := NewOptimizedMember(b, b, event.NewView("legacy", 1, []event.Addr{1, 2}, 1), layers.Stack10(), stack.Func, Handlers{})
	if err != nil {
		t.Fatal(err)
	}
	go b.Run()
	stats := func() (st MemberStats) {
		done := make(chan struct{})
		b.Do(func() { st = m.Stats(); close(done) })
		<-done
		return st
	}
	for _, tc := range legacyDatagrams {
		ms := stats()
		a.Send(1, 2, tc.data)
		waitFor(t, 5*time.Second, tc.name+" to reach the member", func() bool { return stats().PacketsIn > ms.PacketsIn })
		if after := stats(); after.StrayPackets-ms.StrayPackets != 1 || after.PacketsIn-ms.PacketsIn != 1 {
			t.Errorf("%s: %d packets in, %d strays; want exactly one stray packet",
				tc.name, after.PacketsIn-ms.PacketsIn, after.StrayPackets-ms.StrayPackets)
		}
	}
	if st := b.Stats(); st.Resyncs != 0 || st.GenMisses != 0 || st.StaleGenFrames != 0 || st.UnknownSource != 0 {
		t.Fatalf("legacy datagrams drew a link verdict: %+v", st)
	}
}
