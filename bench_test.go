package ensemble_test

// One benchmark per table and figure of the paper's evaluation (§4.2).
// Each reports the per-segment code latencies as custom metrics in the
// units the paper uses (ns here, µs there); `cmd/ensemble-bench` prints
// the same data formatted as the paper's tables.

import (
	"os"
	"runtime"
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
// the measured path — the regression gate for the zero-allocation data
// path (§4, item 1: avoiding garbage-collection cycles). Wires take the
// path every member's traffic takes: appended into a Batcher, flushed as
// 0xB9 frames every 8 rounds (so data frames carry ~8 sub-packets), and
// walked back apart by the receive link. allocs/op and B/op cover only
// the timed region (setup is excluded by ResetTimer); the expectation
// for the steady state is 0 allocs/op — the batcher recycles its frame
// buffers and the link reuses its scratch.

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

func benchThroughput(b *testing.B, cfg bench.Config, names []string, size int) {
	b.Helper()
	r, err := bench.NewThroughputRunner(cfg, names, size)
	if err != nil {
		b.Fatal(err)
	}
	runThroughput(b, r)
}

func BenchmarkThroughput_10Layer_IMP(b *testing.B) {
	benchThroughput(b, bench.IMP, layers.Stack10(), 4)
}
func BenchmarkThroughput_10Layer_FUNC(b *testing.B) {
	benchThroughput(b, bench.FUNC, layers.Stack10(), 4)
}
func BenchmarkThroughput_10Layer_MACH(b *testing.B) {
	benchThroughput(b, bench.MACH, layers.Stack10(), 4)
}
func BenchmarkThroughput_4Layer_IMP(b *testing.B) {
	benchThroughput(b, bench.IMP, layers.Stack4(), 4)
}
func BenchmarkThroughput_4Layer_FUNC(b *testing.B) {
	benchThroughput(b, bench.FUNC, layers.Stack4(), 4)
}
func BenchmarkThroughput_4Layer_MACH(b *testing.B) {
	benchThroughput(b, bench.MACH, layers.Stack4(), 4)
}
func BenchmarkThroughput_4Layer_HAND(b *testing.B) {
	benchThroughput(b, bench.HAND, layers.Stack4(), 4)
}

// The _Obs variants run the same steady-state workload with the obs
// substrate (metrics registry + flight recorder + wire-size histogram)
// live on the emit path, and assert it actually sampled the run: every
// emitted wire lands a flight record and one log-linear bucket add
// (member<m>/wire_bytes). They carry the _10Layer_ tag deliberately: the
// bench gate's zero-allocation scan covers every 10-layer throughput
// benchmark, so observability-on is held to the same 0 allocs/op
// standard as observability-off (Gates 4 and 8).
func benchThroughputObs(b *testing.B, cfg bench.Config, names []string, size int) {
	b.Helper()
	r, err := bench.NewObservedThroughputRunner(cfg, names, size)
	if err != nil {
		b.Fatal(err)
	}
	runThroughput(b, r)
	if r.FlightRecorder().Track(0).Total() == 0 {
		b.Fatal("observed run recorded nothing")
	}
	snap := r.Metrics()
	n, ok := snap.Get("member0/wire_bytes/count")
	if !ok || n == 0 {
		b.Fatalf("wire-size histogram sampled nothing (count=%d ok=%t)", n, ok)
	}
	p99, _ := snap.Get("member0/wire_bytes/p99")
	if p99 <= 0 {
		b.Fatalf("wire-size histogram has empty quantiles (p99=%d)", p99)
	}
	b.ReportMetric(float64(p99), "hist-p99-bytes")
}

func BenchmarkThroughput_10Layer_MACH_Obs(b *testing.B) {
	benchThroughputObs(b, bench.MACH, layers.Stack10(), 4)
}
func BenchmarkThroughput_10Layer_FUNC_Obs(b *testing.B) {
	benchThroughputObs(b, bench.FUNC, layers.Stack10(), 4)
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

// Ablation: the deferred-buffering optimization (§4, item 3) switched
// off — buffering back on the critical path. Compare the down-stack
// metric against BenchmarkTable1a_MACH.

func BenchmarkAblation_MACH_InlineEffects(b *testing.B) {
	seg, err := bench.MeasureMachInlineEffects(layers.Stack10(), 4, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(seg.DownStack, "ns/down-stack")
	b.ReportMetric(seg.Total(), "ns/total")
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

// The compression gate point: the 8-member MACH cast workload at the
// minimum stamped payload (8 bytes — header-dominated wires, the case
// the sub grammar's elisions exist for). bytes/msg is what the members
// put on the wire during the data phase per application cast;
// classic-bytes/msg is the same run's yardstick — what exactly those
// wires would have cost as unbatched classic frames. Gate 3 bounds the
// first by a fixed fraction of the second.
func BenchmarkThroughputNet_8Members_MACH_Seq(b *testing.B) {
	benchThroughputNet(b, bench.MACH, 8, 1, 8)
}

// The wire-format determinism probe behind Gate 7: the 8-member MACH
// workload with cross-frame delta and adaptive flush left on (plus a
// mid-run generation bump), run through Run and RunConcurrent and
// compared byte for byte. Reports identical=1 on a match.
func BenchmarkThroughputNet_8Members_MACH_XFrameIdentity(b *testing.B) {
	ok, err := bench.XFrameIdentityProbe(8, 29, scaleConcWorkers())
	if err != nil {
		b.Fatal(err)
	}
	identical := 0.0
	if ok {
		identical = 1
	}
	b.ReportMetric(identical, "identical")
}

// The causal-trace reconstruction probe behind Gate 8: the 8-member
// netsim reference workload's flight dump stitched into per-message
// spans. Reports the span count and spans-complete=1 when every
// delivered message mapped to a complete chain — origin cast, the
// frame off the origin, every member's receive and ordered delivery.
func BenchmarkThroughputNet_8Members_MACH_SpanRecon(b *testing.B) {
	stats, err := bench.SpanReconProbe(8, 16, 64, 29)
	if err != nil {
		b.Fatal(err)
	}
	complete := 0.0
	if stats.Spans > 0 && stats.Complete == stats.Spans {
		complete = 1
	}
	b.ReportMetric(float64(stats.Spans), "spans")
	b.ReportMetric(complete, "spans-complete")
}

// The observability overhead gate pair: the 8-member MACH workload run
// with observability off and on (full registry +
// per-member flight tracks), alternating three pairs back to back in
// this process and taking the best of each side — a single pair's
// ratio swings ±15% with machine load, best-of-N is the noise-robust
// estimator of the true cost. The gate requires obs-ratio >= 0.97.
func BenchmarkThroughputNet_8Members_MACH_Seq_Obs(b *testing.B) {
	// Floor the per-measurement run length: a sub-100ms run's msgs/sec
	// swings with scheduler and frequency noise far more than any real
	// recorder cost, so the comparison needs runs long enough to
	// amortize it regardless of the -benchtime the caller picked.
	rounds := b.N
	if rounds < 600 {
		rounds = 600
	}
	var bestOff, bestOn float64
	var on bench.NetThroughput
	for i := 0; i < 3; i++ {
		runtime.GC() // equal heap footing for both sides of the pair
		off, err := bench.MeasureNetThroughput(bench.MACH, layers.Stack10(), 8, 8, rounds, 29, 1)
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		var onErr error
		on, onErr = bench.MeasureObservedNetThroughput(bench.MACH, layers.Stack10(), 8, 8, rounds, 29, 1)
		if onErr != nil {
			b.Fatal(onErr)
		}
		if off.MsgsPerSec > bestOff {
			bestOff = off.MsgsPerSec
		}
		if on.MsgsPerSec > bestOn {
			bestOn = on.MsgsPerSec
		}
	}
	if hit, ok := on.Metrics.Get("member0/mach/ccp_hit"); !ok || hit == 0 {
		b.Fatalf("observed run shows no CCP bypass activity (hit=%d ok=%t)", hit, ok)
	}
	b.ReportMetric(bestOn, "msgs/sec")
	b.ReportMetric(bestOn/bestOff, "obs-ratio")
	b.ReportMetric(on.SubsPerFrame, "subs/frame")
}

// The multi-CCP dispatch gate pair: the mixed workload (ring sends,
// periodic casts, loss-forced retransmissions on the FIFO stack) run
// with the single-CCP baseline engine (data bypasses only) and with the
// full dispatch family (control acks and retransmissions specialized,
// profile-guided probe order). Both report interp-share — the fraction
// of routed events that fell through to the interpreted full stack.
// Gate 5 requires the multi-CCP share to come in at no more than half
// the single-CCP share on the identical workload.
func benchMixedTraffic(b *testing.B, multiCCP bool) {
	b.Helper()
	// Floor the round count: the share is a ratio of event populations,
	// and a handful of rounds would measure startup noise, not the
	// steady traffic mix.
	rounds := b.N
	if rounds < 600 {
		rounds = 600
	}
	res, err := bench.MeasureMixedTraffic(5, rounds, multiCCP, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.InterpShare(), "interp-share")
	b.ReportMetric(float64(res.TotalRouted())/float64(rounds), "routed/round")
	b.ReportMetric(float64(res.CtrlCompressed), "ctrl-compressed")
}

func BenchmarkMixedTraffic_SingleCCP(b *testing.B) { benchMixedTraffic(b, false) }
func BenchmarkMixedTraffic_MultiCCP(b *testing.B)  { benchMixedTraffic(b, true) }

// Member-count scaling sweep: the sharded scheduler and the tree-shaped
// membership at 16, 64, and 256 members (the last as 16 hierarchical
// groups of 16 bridged by a spine). Each point reports msgs/sec-member
// — throughput normalized by member count, the number Gate 6 bounds —
// and `identical`, a 1/0 flag from the determinism probe (a short traced
// workload at the same member count run through Run and RunConcurrent
// and compared byte for byte).
//
// The rounds are fixed per point rather than b.N-driven: one all-cast
// round costs O(members²) deliveries, so scaling 256 members to the
// -benchtime 150x the net pass uses would take tens of minutes. The
// fixed counts match cmd/ensemble-bench's -table scale, keeping the
// bench-gate pass wall-time bounded.
func benchThroughputNetScale(b *testing.B, run func(workers int) (bench.ScaleResult, error), workers int) {
	b.Helper()
	res, err := run(workers)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.MsgsPerSec, "msgs/sec")
	b.ReportMetric(res.PerMember, "msgs/sec-member")
	if res.AllocsPerDelivery > 0 {
		b.ReportMetric(res.AllocsPerDelivery, "allocs/delivery")
	}
	identical := 0.0
	if res.Identical {
		identical = 1
	}
	b.ReportMetric(identical, "identical")
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

// scale256Enabled gates the 256-member point. A 256-member all-cast
// round is ~65k deliveries; on small machines the point would dominate
// `make verify`'s wall time for no signal, so it skips below 4 cores —
// the same spirit as `make multiproc`'s environment check. Setting
// ENSEMBLE_SCALE_FORCE=1 runs it anyway (used to record the full sweep
// in the benchmark trajectory file); the bench gate accepts either the
// measured point or the skip marker.
func scale256Enabled() bool {
	return runtime.NumCPU() >= 4 || os.Getenv("ENSEMBLE_SCALE_FORCE") != ""
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
	if !scale256Enabled() {
		b.Skip("256-member scale point needs >= 4 cores (ENSEMBLE_SCALE_FORCE=1 overrides)")
	}
	benchThroughputNetScale(b, func(w int) (bench.ScaleResult, error) { return bench.MeasureHierScale(16, 16, 3, 31, w) }, 1)
}
func BenchmarkThroughputNet_256Members_Scale_Conc(b *testing.B) {
	if !scale256Enabled() {
		b.Skip("256-member scale point needs >= 4 cores (ENSEMBLE_SCALE_FORCE=1 overrides)")
	}
	benchThroughputNetScale(b, func(w int) (bench.ScaleResult, error) { return bench.MeasureHierScale(16, 16, 3, 31, w) }, scaleConcWorkers())
}

// The UDP loopback benchmark exercises the real-socket path: 0xB9
// frames cross the kernel loopback device in coalesced datagrams rather
// than the simulator. Not part of the bench gate (kernel scheduling
// noise), but the same three metrics as the simulated runs, for
// side-by-side reading.
func BenchmarkThroughputUDP(b *testing.B) {
	msgs := b.N
	if msgs < 64 {
		msgs = 64
	}
	res, err := bench.MeasureUDPThroughput(msgs, 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.MsgsPerSec, "msgs/sec")
	b.ReportMetric(res.BytesPerMsg, "bytes/msg")
	b.ReportMetric(res.SubsPerFrame, "subs/frame")
}
