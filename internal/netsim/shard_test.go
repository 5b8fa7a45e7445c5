package netsim

import (
	"fmt"
	"testing"

	"ensemble/internal/event"
)

// shardedEcho is clusterEcho with a shard count.
func shardedEcho(seed int64, profile Profile, members, limit, shards int) *Cluster {
	c := clusterEcho(seed, profile, members, limit)
	c.SetShards(shards)
	return c
}

// TestClusterShardedDeterministicReplay: with the scheduler split into
// shards, the same (seed, shard count) still yields a byte-identical
// delivery trace in sequential and concurrent mode, across profiles —
// including a lossy one, where every RNG draw order matters.
func TestClusterShardedDeterministicReplay(t *testing.T) {
	profiles := map[string]Profile{
		"perfect":  {Latency: 1000},
		"ethernet": Ethernet100(),
		"lossy":    Lossy(0.25),
	}
	for name, profile := range profiles {
		for _, shards := range []int{2, 3, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				seq := shardedEcho(42, profile, 8, 3, shards)
				seq.Run(int64(5e9))
				conc := shardedEcho(42, profile, 8, 3, shards)
				conc.RunConcurrent(int64(5e9), 4)
				if seq.TraceString() != conc.TraceString() {
					t.Fatalf("sharded traces diverge:\nseq:\n%s\nconc:\n%s",
						head(seq.TraceString(), 20), head(conc.TraceString(), 20))
				}
				if seq.TraceString() == "" {
					t.Fatal("empty trace: workload never ran")
				}
				if seq.Net().Stats() != conc.Net().Stats() {
					t.Fatalf("stats diverge: %+v vs %+v", seq.Net().Stats(), conc.Net().Stats())
				}
				// Replaying the same configuration must reproduce the trace
				// exactly (the schedule is a pure function of seed+shards).
				again := shardedEcho(42, profile, 8, 3, shards)
				again.RunConcurrent(int64(5e9), 4)
				if again.TraceString() != seq.TraceString() {
					t.Fatal("same (seed, shards) did not replay the same trace")
				}
			})
		}
	}
}

// TestClusterShardedQuantumDeterminism: batching windows and adaptive
// control compose with sharding without breaking Run/RunConcurrent
// byte-identity.
func TestClusterShardedQuantumDeterminism(t *testing.T) {
	mk := func() *Cluster {
		c := shardedEcho(7, Lossy(0.2), 9, 5, 3)
		c.EnableAdaptiveQuantum(1000, 1_000_000)
		return c
	}
	seq := mk()
	seq.Run(int64(5e9))
	conc := mk()
	conc.RunConcurrent(int64(5e9), 3)
	if seq.TraceString() != conc.TraceString() {
		t.Fatal("sharded adaptive traces diverge between Run and RunConcurrent")
	}
	if seq.quantum != conc.quantum {
		t.Fatalf("adaptive quantum trajectory diverged: %d vs %d", seq.quantum, conc.quantum)
	}
}

// TestAdaptiveQuantumShardDensity pins the controller's threshold
// scaling to the *shard* population. The old formula compared the
// global routed count against 4*len(all endpoints) / 32*len(all
// endpoints); with per-shard routing that misclassifies any cluster
// whose load concentrates in one shard.
func TestAdaptiveQuantumShardDensity(t *testing.T) {
	mk := func() *Cluster {
		c := NewCluster(1, Profile{Latency: 1000})
		for i := 0; i < 8; i++ {
			ep := c.NewEndpoint(event.Addr(i + 1))
			ep.Attach(ep.Addr(), func(p Packet) {})
		}
		c.SetShards(2) // two shards of 4 endpoints each
		c.EnableAdaptiveQuantum(1000, 1_000_000)
		c.quantum = 16_000
		c.freeze()
		return c
	}

	// One shard at density 5 (between the 4x and 32x thresholds), the
	// other idle: the window must hold. The global formula would see
	// 20 < 4*8 = 32 routed and wrongly double.
	c := mk()
	c.shards[0].routed = 20
	c.shards[1].routed = 0
	c.adaptQuantum()
	if c.quantum != 16_000 {
		t.Fatalf("hot-shard density 5 must hold the window, got quantum %d (want 16000)", c.quantum)
	}

	// One shard above 32 events per member: halve, even though the
	// cluster-wide density (200/8 = 25) is under the old global halving
	// threshold.
	c = mk()
	c.shards[0].routed = 200 // > 32*4 = 128
	c.shards[1].routed = 0
	c.adaptQuantum()
	if c.quantum != 8_000 {
		t.Fatalf("dense shard must halve the window, got quantum %d (want 8000)", c.quantum)
	}

	// Every shard sparse: double.
	c = mk()
	c.shards[0].routed = 3
	c.shards[1].routed = 3
	c.adaptQuantum()
	if c.quantum != 32_000 {
		t.Fatalf("all-sparse shards must double the window, got quantum %d (want 32000)", c.quantum)
	}
}

// TestEndpointPostCrossShard: Post hands a function to another member's
// goroutine deterministically, across a shard boundary, with the target
// member's clock advanced to the post's delivery time.
func TestEndpointPostCrossShard(t *testing.T) {
	run := func(workers int) []string {
		c := NewCluster(5, Profile{Latency: 2000})
		var log []string
		for i := 0; i < 4; i++ {
			ep := c.NewEndpoint(event.Addr(i + 1))
			ep.Attach(ep.Addr(), func(p Packet) {})
		}
		c.SetShards(2) // eps 0,1 in shard 0; eps 2,3 in shard 1
		ep0, ep3 := c.eps[0], c.eps[3]
		c.Enqueue(0, 1000, func() {
			// Member 0 (shard 0) hands work to member 3 (shard 1); the fn
			// runs on member 3's goroutine and may use its endpoint.
			ep0.Post(ep3.Addr(), 500, func() {
				log = append(log, fmt.Sprintf("relay at t=%d", ep3.Now()))
				ep3.Cast(ep3.Addr(), []byte("bridged"))
			})
		})
		if workers > 1 {
			c.RunConcurrent(int64(1e9), workers)
		} else {
			c.Run(int64(1e9))
		}
		st := c.Net().Stats()
		log = append(log, fmt.Sprintf("sent=%d delivered=%d", st.Sent, st.Delivered))
		return log
	}
	seq := run(1)
	conc := run(4)
	if fmt.Sprint(seq) != fmt.Sprint(conc) {
		t.Fatalf("post logs diverge: %v vs %v", seq, conc)
	}
	if seq[0] != "relay at t=1500" {
		t.Fatalf("post ran at the wrong time/member: %v", seq)
	}
	// The bridged cast fans to members 1,2,4 — proof the posted fn's
	// effects went through member 3's own commit path.
	if seq[1] != "sent=3 delivered=3" {
		t.Fatalf("bridged cast accounting wrong: %v", seq)
	}
}
