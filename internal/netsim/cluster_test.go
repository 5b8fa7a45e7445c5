package netsim

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"ensemble/internal/event"
)

// clusterEcho builds a deterministic N-member workload on a cluster:
// member 0 seeds a numbered cast; every receiver of a packet with a
// counter below limit re-casts counter+1 and point-to-point-acks the
// sender. The per-member logic is pure (no shared state), so the
// delivery trace is a function of the seed and the scheduler alone.
func clusterEcho(seed int64, profile Profile, members, limit int) *Cluster {
	c := NewCluster(seed, profile)
	for i := 0; i < members; i++ {
		ep := c.NewEndpoint(event.Addr(i + 1))
		ep.Attach(ep.Addr(), func(p Packet) {
			ctr := binary.LittleEndian.Uint32(p.Data)
			if int(ctr) >= limit {
				return
			}
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], ctr+1)
			ep.Cast(ep.Addr(), buf[:])
			ep.Send(ep.Addr(), p.From, buf[:])
		})
	}
	c.Enqueue(0, 0, func() {
		var buf [4]byte
		c.eps[0].Cast(c.eps[0].Addr(), buf[:])
	})
	c.EnableTrace()
	return c
}

// TestClusterDeterministicReplay: the same seed yields a byte-identical
// delivery trace in sequential and concurrent mode, across profiles.
func TestClusterDeterministicReplay(t *testing.T) {
	profiles := map[string]Profile{
		"perfect":  {Latency: 1000},
		"ethernet": Ethernet100(),
		"lossy":    Lossy(0.25),
	}
	for name, profile := range profiles {
		t.Run(name, func(t *testing.T) {
			seq := clusterEcho(42, profile, 5, 6)
			seq.Run(int64(5e9))
			conc := clusterEcho(42, profile, 5, 6)
			conc.RunConcurrent(int64(5e9), 5)
			if seq.TraceString() != conc.TraceString() {
				t.Fatalf("sequential and concurrent traces diverge:\nseq:\n%s\nconc:\n%s",
					head(seq.TraceString(), 20), head(conc.TraceString(), 20))
			}
			if seq.TraceString() == "" {
				t.Fatal("empty trace: workload never ran")
			}
			if seq.Net().Stats() != conc.Net().Stats() {
				t.Fatalf("stats diverge: %+v vs %+v", seq.Net().Stats(), conc.Net().Stats())
			}
			// And a different seed must actually change the lossy trace.
			if profile.LossProb > 0 {
				other := clusterEcho(43, profile, 5, 6)
				other.Run(int64(5e9))
				if other.TraceString() == seq.TraceString() {
					t.Fatal("different seeds produced identical lossy traces (suspicious)")
				}
			}
		})
	}
}

// TestClusterQuantumDeterminism: a batching window changes how much
// work each barrier round carries, but sequential and concurrent runs
// under the same quantum still agree byte for byte.
func TestClusterQuantumDeterminism(t *testing.T) {
	mk := func() *Cluster {
		c := clusterEcho(7, Lossy(0.2), 6, 5)
		c.EnableAdaptiveQuantum(10_000, 10_000) // fixed 10µs window, below the 50µs link latency
		return c
	}
	seq := mk()
	seq.Run(int64(5e9))
	conc := mk()
	conc.RunConcurrent(int64(5e9), 3) // fewer workers than members
	if seq.TraceString() != conc.TraceString() {
		t.Fatal("quantum-batched traces diverge between Run and RunConcurrent")
	}
}

// TestSparserScheduleDoublesQuantum: the adaptive window widens until a
// round routes about four events per member, so a schedule with half as
// many events settles on a window twice as wide — what a group sending
// fewer frames sees, and why its virtual latencies grow.
func TestSparserScheduleDoublesQuantum(t *testing.T) {
	const members, span = 4, int64(100e6)
	settled := func(gap int64) (int64, map[int64]int64) {
		c := NewCluster(1, Profile{Latency: 1000})
		for i := 0; i < members; i++ {
			c.NewEndpoint(event.Addr(i + 1))
		}
		c.EnableAdaptiveQuantum(100_000, 100_000_000)
		for at := int64(0); at < span; at += gap {
			for i := 0; i < members; i++ {
				c.Enqueue(i, at, func() {})
			}
		}
		c.Run(span)
		rounds := c.QuantumRounds()
		var most int64
		for q, n := range rounds {
			if n > rounds[most] {
				most = q
			}
		}
		return most, rounds
	}
	dense, dr := settled(50_000)
	sparse, sr := settled(100_000)
	if dense != 200_000 || sparse != 2*dense {
		t.Fatalf("most rounds ran under %d ns (dense, %v) and %d ns (sparse, %v), want 200000 and twice that", dense, dr, sparse, sr)
	}
}

// TestClusterTimersAndDetach: member timers fire on the member
// goroutine in virtual-time order, and a detach mid-run drops (and
// accounts) in-flight packets identically in both modes.
func TestClusterTimersAndDetach(t *testing.T) {
	build := func() (*Cluster, *[]string) {
		c := NewCluster(9, Profile{Latency: 5000})
		log := &[]string{}
		for i := 0; i < 4; i++ {
			ep := c.NewEndpoint(event.Addr(i + 1))
			ep.Attach(ep.Addr(), func(p Packet) {})
		}
		ep0 := c.eps[0]
		var tickTimes []int64
		ep0.After(1000, func() { tickTimes = append(tickTimes, ep0.Now()) })
		ep0.After(3000, func() {
			tickTimes = append(tickTimes, ep0.Now())
			ep0.Cast(ep0.Addr(), []byte("bye"))
			ep0.Detach(ep0.Addr())
		})
		// Send a packet *to* member 0 that arrives after its detach.
		c.Enqueue(1, 4000, func() { c.eps[1].Send(c.eps[1].Addr(), 1, []byte("late")) })
		c.Enqueue(0, int64(1e8), func() {
			*log = append(*log, fmt.Sprintf("ticks=%v", tickTimes))
		})
		return c, log
	}

	c, log := build()
	c.Run(int64(1e9))
	cc, clog := build()
	cc.RunConcurrent(int64(1e9), 4)
	// The log fn enqueued at t=1e8 runs even though member 0 detached:
	// timers and enqueued fns belong to the goroutine, not the endpoint
	// attachment. Both modes must agree on what the timers saw.
	if fmt.Sprint(*log) != fmt.Sprint(*clog) || len(*log) != 1 {
		t.Fatalf("timer logs diverge: %v vs %v", *log, *clog)
	}
	if (*log)[0] != "ticks=[1000 3000]" {
		t.Fatalf("timer fire times wrong: %v", *log)
	}
	st := c.Net().Stats()
	if st != cc.Net().Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", st, cc.Net().Stats())
	}
	// 3 casts from member 0 ("bye" to members 2,3,4) + 1 late send = 4
	// sent; the late send must be counted dropped, not vanish.
	if st.Sent != 4 {
		t.Fatalf("Sent = %d, want 4", st.Sent)
	}
	if st.Delivered+st.Dropped != st.Sent+st.Duplicated {
		t.Fatalf("accounting leak: %+v", st)
	}
	if st.Dropped < 1 {
		t.Fatalf("late packet to detached endpoint not counted dropped: %+v", st)
	}
}

// TestClusterConcurrentMutationIsConfined: under the race detector this
// is the smoke test that member callbacks really run on distinct
// goroutines with proper barriers — each member hammers a member-local
// accumulator and the results must still be deterministic.
func TestClusterConcurrentMutationIsConfined(t *testing.T) {
	run := func(workers int) (string, []int) {
		c := NewCluster(3, Lossy(0.1))
		counts := make([]int, 6)
		for i := 0; i < 6; i++ {
			i := i
			ep := c.NewEndpoint(event.Addr(i + 1))
			ep.Attach(ep.Addr(), func(p Packet) {
				counts[i]++ // disjoint index per member: no race
				if counts[i] < 30 {
					ep.Cast(ep.Addr(), p.Data)
				}
			})
		}
		c.EnableTrace()
		c.Enqueue(0, 0, func() { c.eps[0].Cast(1, []byte("go")) })
		if workers > 1 {
			c.RunConcurrent(int64(60e9), workers)
		} else {
			c.Run(int64(60e9))
		}
		return c.TraceString(), counts
	}
	seqTrace, seqCounts := run(1)
	concTrace, concCounts := run(6)
	if seqTrace != concTrace {
		t.Fatal("traces diverge")
	}
	if fmt.Sprint(seqCounts) != fmt.Sprint(concCounts) {
		t.Fatalf("per-member delivery counts diverge: %v vs %v", seqCounts, concCounts)
	}
	total := 0
	for _, n := range seqCounts {
		total += n
	}
	if total == 0 {
		t.Fatal("no deliveries at all")
	}
}

func head(s string, lines int) string {
	parts := strings.SplitN(s, "\n", lines+1)
	if len(parts) > lines {
		parts = parts[:lines]
	}
	return strings.Join(parts, "\n")
}
