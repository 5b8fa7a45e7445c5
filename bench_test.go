package ensemble_test

// One benchmark per table and figure of the paper's evaluation (§4.2).
// Each reports the per-segment code latencies as custom metrics in the
// units the paper uses (ns here, µs there); `cmd/ensemble-bench` prints
// the same data formatted as the paper's tables.

import (
	"runtime"
	"slices"
	"testing"

	"ensemble/internal/bench"
	"ensemble/internal/layers"
)

func benchLatency(b *testing.B, cfg bench.Config, names []string, size int) {
	b.Helper()
	seg, err := bench.MeasureCodeLatency(cfg, names, size, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(seg.DownStack, "ns/down-stack")
	b.ReportMetric(seg.DownTransport, "ns/down-transport")
	b.ReportMetric(seg.UpTransport, "ns/up-transport")
	b.ReportMetric(seg.UpStack, "ns/up-stack")
	b.ReportMetric(seg.Total(), "ns/total")
}

// Table 1(a): 10-layer stack code latency, 4-byte messages.

func BenchmarkTable1a_MACH(b *testing.B) { benchLatency(b, bench.MACH, layers.Stack10(), 4) }
func BenchmarkTable1a_IMP(b *testing.B)  { benchLatency(b, bench.IMP, layers.Stack10(), 4) }
func BenchmarkTable1a_FUNC(b *testing.B) { benchLatency(b, bench.FUNC, layers.Stack10(), 4) }

// Table 1(b): 4-layer stack code latency, 4-byte messages.

func BenchmarkTable1b_HAND(b *testing.B) { benchLatency(b, bench.HAND, layers.Stack4(), 4) }
func BenchmarkTable1b_MACH(b *testing.B) { benchLatency(b, bench.MACH, layers.Stack4(), 4) }
func BenchmarkTable1b_IMP(b *testing.B)  { benchLatency(b, bench.IMP, layers.Stack4(), 4) }
func BenchmarkTable1b_FUNC(b *testing.B) { benchLatency(b, bench.FUNC, layers.Stack4(), 4) }

// Figure 6: 10-layer stack code latency across message sizes.

func BenchmarkFigure6_MACH_4(b *testing.B)    { benchLatency(b, bench.MACH, layers.Stack10(), 4) }
func BenchmarkFigure6_MACH_24(b *testing.B)   { benchLatency(b, bench.MACH, layers.Stack10(), 24) }
func BenchmarkFigure6_MACH_100(b *testing.B)  { benchLatency(b, bench.MACH, layers.Stack10(), 100) }
func BenchmarkFigure6_MACH_1024(b *testing.B) { benchLatency(b, bench.MACH, layers.Stack10(), 1024) }
func BenchmarkFigure6_IMP_4(b *testing.B)     { benchLatency(b, bench.IMP, layers.Stack10(), 4) }
func BenchmarkFigure6_IMP_24(b *testing.B)    { benchLatency(b, bench.IMP, layers.Stack10(), 24) }
func BenchmarkFigure6_IMP_100(b *testing.B)   { benchLatency(b, bench.IMP, layers.Stack10(), 100) }
func BenchmarkFigure6_IMP_1024(b *testing.B)  { benchLatency(b, bench.IMP, layers.Stack10(), 1024) }
func BenchmarkFigure6_FUNC_4(b *testing.B)    { benchLatency(b, bench.FUNC, layers.Stack10(), 4) }
func BenchmarkFigure6_FUNC_24(b *testing.B)   { benchLatency(b, bench.FUNC, layers.Stack10(), 24) }
func BenchmarkFigure6_FUNC_100(b *testing.B)  { benchLatency(b, bench.FUNC, layers.Stack10(), 100) }
func BenchmarkFigure6_FUNC_1024(b *testing.B) { benchLatency(b, bench.FUNC, layers.Stack10(), 1024) }

// Table 2(a): send/recv rounds with runtime counters, original vs
// optimized. The allocation counters are the Go analogue of the paper's
// memory-reference and instruction counters.

func benchCounters(b *testing.B, cfg bench.Config) {
	b.Helper()
	b.ReportAllocs()
	c, err := bench.MeasureCounters(cfg, layers.Stack10(), 4, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(c.Mallocs)/float64(b.N), "allocs/round")
	b.ReportMetric(float64(c.AllocBytes)/float64(b.N), "allocB/round")
	b.ReportMetric(float64(c.WireBytes)/float64(b.N), "wireB/round")
}

func BenchmarkTable2a_OriginalStack(b *testing.B)  { benchCounters(b, bench.IMP) }
func BenchmarkTable2a_OptimizedStack(b *testing.B) { benchCounters(b, bench.MACH) }

// Sustained throughput: steady-state cast rounds with the transport on
// the measured path. Wires take the path every member's traffic takes:
// appended into a Batcher, flushed as 0xB9 frames every 8 rounds (so
// data frames carry ~8 sub-packets), and walked back apart by the
// receive link. allocs/op and B/op cover only the timed region (setup is
// excluded by ResetTimer); internal/bench's TestThroughputAllocFree holds
// the 10-layer rounds to 0 allocations (§4, item 1: avoiding
// garbage-collection cycles).

// runThroughput warms r up, times b.N rounds, and checks every round was
// delivered.
func runThroughput(b *testing.B, r *bench.ThroughputRunner) {
	b.Helper()
	// Reach steady state: pools warm, windows open. The warmup runs past
	// the 256-round housekeeping sweep boundary because the first round
	// after a sweep regrows a pooled buffer once; measuring from round
	// 513 exactly would charge that one-time growth to a 1x run.
	r.Run(520)
	before := r.Delivered()
	b.ReportAllocs()
	b.ResetTimer()
	r.Run(b.N)
	b.StopTimer()
	if got := r.Delivered() - before; got < b.N {
		b.Fatalf("%d rounds but only %d deliveries", b.N, got)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
	if bs := r.BatchStats(); bs.Frames > 0 {
		b.ReportMetric(float64(bs.SubPackets)/float64(bs.Frames), "subs/frame")
	}
}

func benchThroughput(b *testing.B, newRunner func(bench.Config, []string, int) (*bench.ThroughputRunner, error), cfg bench.Config, names []string) {
	b.Helper()
	r, err := newRunner(cfg, names, 4)
	if err != nil {
		b.Fatal(err)
	}
	runThroughput(b, r)
}

func BenchmarkThroughput_10Layer_IMP(b *testing.B) {
	benchThroughput(b, bench.NewThroughputRunner, bench.IMP, layers.Stack10())
}
func BenchmarkThroughput_10Layer_FUNC(b *testing.B) {
	benchThroughput(b, bench.NewThroughputRunner, bench.FUNC, layers.Stack10())
}
func BenchmarkThroughput_10Layer_MACH(b *testing.B) {
	benchThroughput(b, bench.NewThroughputRunner, bench.MACH, layers.Stack10())
}
func BenchmarkThroughput_4Layer_IMP(b *testing.B) {
	benchThroughput(b, bench.NewThroughputRunner, bench.IMP, layers.Stack4())
}
func BenchmarkThroughput_4Layer_FUNC(b *testing.B) {
	benchThroughput(b, bench.NewThroughputRunner, bench.FUNC, layers.Stack4())
}
func BenchmarkThroughput_4Layer_MACH(b *testing.B) {
	benchThroughput(b, bench.NewThroughputRunner, bench.MACH, layers.Stack4())
}
func BenchmarkThroughput_4Layer_HAND(b *testing.B) {
	benchThroughput(b, bench.NewThroughputRunner, bench.HAND, layers.Stack4())
}

// The _Obs variants run the same steady-state workload with the obs
// substrate (metrics registry + flight recorder + wire-size histogram)
// live on the emit path.
func BenchmarkThroughput_10Layer_MACH_Obs(b *testing.B) {
	benchThroughput(b, bench.NewObservedThroughputRunner, bench.MACH, layers.Stack10())
}
func BenchmarkThroughput_10Layer_FUNC_Obs(b *testing.B) {
	benchThroughput(b, bench.NewObservedThroughputRunner, bench.FUNC, layers.Stack10())
}

// §4.2: the common-case-predicate check itself ("checking the CCPs takes
// only about 3 µs" on the paper's hardware).

func BenchmarkCCPCheck(b *testing.B) {
	d, err := bench.MeasureCCPCheck(layers.Stack10(), b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(d.Nanoseconds()), "ns/check")
}

// N-member sustained throughput over the simulated network: the whole
// group (one goroutine per member when concurrent) with the transport
// and the 100Mb Ethernet model on the measured path. The reported
// virtual latency is the Figure-6 quantity measured end to end across
// the simulated link. Seq and Conc variants execute the identical
// delivery schedule (netsim.Cluster's determinism guarantee), so their
// msgs/sec difference is pure scheduling overhead or parallel speedup.

func benchThroughputNet(b *testing.B, cfg bench.Config, members, workers, size int) {
	b.Helper()
	rounds := b.N
	if rounds < 8 {
		rounds = 8
	}
	res, err := bench.MeasureNetThroughput(cfg, layers.Stack10(), members, size, rounds, 29, workers)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.MsgsPerSec, "msgs/sec")
	b.ReportMetric(res.VirtualLatency, "virt-ns/delivery")
	b.ReportMetric(float64(res.Delivered)/float64(rounds), "deliveries/round")
	b.ReportMetric(res.SubsPerFrame, "subs/frame")
	b.ReportMetric(res.BytesPerMsg, "bytes/msg")
	b.ReportMetric(res.ClassicBytesPerMsg, "classic-bytes/msg")
}

func BenchmarkThroughputNet_3Members_IMP_Seq(b *testing.B) {
	benchThroughputNet(b, bench.IMP, 3, 1, 64)
}
func BenchmarkThroughputNet_3Members_IMP_Conc(b *testing.B) {
	benchThroughputNet(b, bench.IMP, 3, 3, 64)
}
func BenchmarkThroughputNet_5Members_MACH_Seq(b *testing.B) {
	benchThroughputNet(b, bench.MACH, 5, 1, 64)
}
func BenchmarkThroughputNet_5Members_MACH_Conc(b *testing.B) {
	benchThroughputNet(b, bench.MACH, 5, 5, 64)
}
func BenchmarkThroughputNet_8Members_FUNC_Seq(b *testing.B) {
	benchThroughputNet(b, bench.FUNC, 8, 1, 64)
}
func BenchmarkThroughputNet_8Members_FUNC_Conc(b *testing.B) {
	benchThroughputNet(b, bench.FUNC, 8, 8, 64)
}

// The 8-member MACH cast workload at the minimum stamped payload (8
// bytes — header-dominated wires, the case the sub grammar's elisions
// exist for). bytes/msg is what the members put on the wire during the
// data phase per application cast; classic-bytes/msg is the same run's
// yardstick — what exactly those wires would have cost as unbatched
// classic frames. internal/bench's TestNetThroughputCoalesces bounds the
// first by a fixed share of the second.
func BenchmarkThroughputNet_8Members_MACH_Seq(b *testing.B) {
	benchThroughputNet(b, bench.MACH, 8, 1, 8)
}

// The observability overhead pair behind cmd/bench-gate's obs-ratio bar
// (>= 0.97): the 8-member MACH workload with observability off and on
// (full registry + per-member flight tracks), obsPairs pairs back to
// back in this process, alternating which side runs first so neither
// always meets the other's garbage or a warmer cache. obs-ratio is the
// median of the pairs' on/off ratios: a burst of machine load lands on
// one side of one pair, which the median discards, where a best-of-N
// per side reads the load itself (best-of-three read 0.878 to 1.338).
func BenchmarkThroughputNet_8Members_MACH_Seq_Obs(b *testing.B) {
	const obsPairs = 9
	// Floor the per-measurement run length: a sub-100ms run's msgs/sec
	// swings with scheduler and frequency noise far more than any real
	// recorder cost, so the comparison needs runs long enough to
	// amortize it regardless of the -benchtime the caller picked.
	rounds := max(b.N, 600)
	run := func(measure func(bench.Config, []string, int, int, int, int64, int) (bench.NetThroughput, error)) bench.NetThroughput {
		runtime.GC() // equal heap footing for both sides of the pair
		res, err := measure(bench.MACH, layers.Stack10(), 8, 8, rounds, 29, 1)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	ratios := make([]float64, obsPairs)
	var off, on bench.NetThroughput
	for i := range ratios {
		if i%2 == 0 {
			off, on = run(bench.MeasureNetThroughput), run(bench.MeasureObservedNetThroughput)
		} else {
			on, off = run(bench.MeasureObservedNetThroughput), run(bench.MeasureNetThroughput)
		}
		ratios[i] = on.MsgsPerSec / off.MsgsPerSec
	}
	if hit, ok := on.Metrics.Get("member0/mach/ccp_hit"); !ok || hit == 0 {
		b.Fatalf("observed run shows no CCP bypass activity (hit=%d ok=%t)", hit, ok)
	}
	slices.Sort(ratios)
	b.ReportMetric(on.MsgsPerSec, "msgs/sec")
	b.ReportMetric(ratios[obsPairs/2], "obs-ratio")
}

// Member-count scaling sweep: the sharded scheduler and the tree-shaped
// membership at 16, 64, and 256 members (the last as 16 hierarchical
// groups of 16 bridged by a spine). Each point reports msgs/sec-member
// — throughput normalized by member count, which cmd/bench-gate holds
// to a floor relative to the 16-member point.
//
// The rounds are fixed per point rather than b.N-driven: one all-cast
// round costs O(members²) deliveries, so a 256-member point scaled by
// b.N would take tens of minutes. The fixed counts match
// cmd/ensemble-bench's -table scale, keeping the bench-gate pass
// wall-time bounded.
func benchThroughputNetScale(b *testing.B, run func(workers int) (bench.ScaleResult, error), workers int) {
	b.Helper()
	res, err := run(workers)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.MsgsPerSec, "msgs/sec")
	b.ReportMetric(res.PerMember, "msgs/sec-member")
}

// scaleConcWorkers sizes the concurrent scale runs like
// cmd/ensemble-bench: the machine's cores, clamped to [2, 8].
func scaleConcWorkers() int {
	w := runtime.NumCPU()
	if w > 8 {
		w = 8
	}
	if w < 2 {
		w = 2
	}
	return w
}

func BenchmarkThroughputNet_16Members_Scale_Seq(b *testing.B) {
	benchThroughputNetScale(b, func(w int) (bench.ScaleResult, error) { return bench.MeasureScale(16, 20, 31, w) }, 1)
}
func BenchmarkThroughputNet_16Members_Scale_Conc(b *testing.B) {
	benchThroughputNetScale(b, func(w int) (bench.ScaleResult, error) { return bench.MeasureScale(16, 20, 31, w) }, scaleConcWorkers())
}
func BenchmarkThroughputNet_64Members_Scale_Seq(b *testing.B) {
	benchThroughputNetScale(b, func(w int) (bench.ScaleResult, error) { return bench.MeasureScale(64, 8, 31, w) }, 1)
}
func BenchmarkThroughputNet_64Members_Scale_Conc(b *testing.B) {
	benchThroughputNetScale(b, func(w int) (bench.ScaleResult, error) { return bench.MeasureScale(64, 8, 31, w) }, scaleConcWorkers())
}
func BenchmarkThroughputNet_256Members_Scale_Seq(b *testing.B) {
	benchThroughputNetScale(b, func(w int) (bench.ScaleResult, error) { return bench.MeasureHierScale(16, 16, 3, 31, w) }, 1)
}
func BenchmarkThroughputNet_256Members_Scale_Conc(b *testing.B) {
	benchThroughputNetScale(b, func(w int) (bench.ScaleResult, error) { return bench.MeasureHierScale(16, 16, 3, 31, w) }, scaleConcWorkers())
}
