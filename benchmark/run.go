package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"ensemble/internal/stack"
)

// runResult is one workload's run: what the contract line carries, plus
// the notes a reader needs beside the numbers.
type runResult struct {
	Procs     int       `json:"gomaxprocs"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	Notes     []string  `json:"notes,omitempty"`
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// oneRep runs one repetition of w under opts, collected garbage first
// so one repetition's leftovers are not the next one's GC work, and
// keeps only the summary of its latencies.
func oneRep(w *workload, seed int64, opts runOptions) (*repetition, error) {
	runtime.GC()
	run := simRep
	if w.udp {
		run = udpRep
	}
	rep, err := run(w, seed, opts)
	if err == nil && !opts.setupOnly {
		rep.summarize()
	}
	return rep, err
}

// tally folds one repetition's correctness into the result. An open
// loop whose latency grows across the schedule is a failed run: the
// frozen interval is wrong for this machine.
func (r *runResult) tally(rep *repetition, crashed bool) {
	r.Attempted += rep.casts
	r.Failed += rep.verdict.failed
	if v := rep.verdict; v.failed > 0 {
		r.note("FAILED casts: %d missing, %d duplicated, %d corrupted, %d out of order, %d stray", v.missing, v.duplicated, v.corrupted, v.reordered, v.strays)
	}
	if crashed {
		r.Attempted++
		if !rep.vc.agreed {
			r.Failed++
			r.note("FAILED view change: the survivors did not agree on a view without the crashed member")
		}
	}
	if rep.lat.grew {
		r.Correct = false
		r.note("FAILED backlog check: virtual latency median grew from %d us (first half of the casts) to %d us (ninth tenth)", rep.lat.early/1000, rep.lat.late/1000)
	}
	if r.Failed > 0 {
		r.Correct = false
	}
}

// minReps is the fewest repetitions a median is taken over.
const minReps = 3

// minSetups is the fewest set-ups setup_s is the median of; set-up is
// short and jittery, so it is repeated on its own after the timed work.
const minSetups = 12

// runUntraced measures the end-to-end metrics: one discarded warm-up
// repetition, then repetitions of the fixed work until seconds have
// passed, tracing and observability off.
func runUntraced(w *workload, seed int64, seconds float64) (*runResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs()))
	res := &runResult{Procs: w.procs(), Correct: true, Metrics: metricSet{}}
	if _, err := oneRep(w, seed, runOptions{}); err != nil {
		return nil, err
	}
	var reps []*repetition
	start := time.Now()
	var lastDur time.Duration
	for {
		// The crash phase costs as much as a data phase and its numbers
		// are not end-to-end metrics, so it runs once: in the repetition
		// that is expected to be the last.
		last := len(reps)+1 >= minReps && (time.Since(start)+lastDur).Seconds() >= seconds
		t := time.Now()
		rep, err := oneRep(w, seed, runOptions{crash: last})
		if err != nil {
			return nil, err
		}
		lastDur = time.Since(t)
		reps = append(reps, rep)
		res.tally(rep, last && w.crash)
		if last {
			break
		}
	}
	setups := column(reps, func(r *repetition) float64 { return r.setupS })
	for len(setups) < minSetups {
		rep, err := oneRep(w, seed, runOptions{setupOnly: true})
		if err != nil {
			return nil, err
		}
		setups = append(setups, rep.setupS)
	}
	m := res.Metrics
	m.put("setup_s", setups...)
	m.put("cast_msgs_per_s", column(reps, (*repetition).msgsPerS)...)
	m.put("cpu_us_per_delivery", column(reps, func(r *repetition) float64 { return r.cpuUsPerDelivery(w) })...)
	m.put("wall_latency_p50_us", column(reps, func(r *repetition) float64 { return float64(r.lat.wallP50) / 1e3 })...)
	m.put("wire_bytes_per_msg", column(reps, wireBytesPerMsg)...)
	m.put("live_heap_mb", column(reps, func(r *repetition) float64 { return r.heapMB })...)
	res.note("%d repetitions of %d casts (%d deliveries) each; wall latency percentiles over %d samples per repetition",
		len(reps), w.casts(), w.casts()*w.members, w.casts())
	return res, nil
}

func (r *repetition) cpuUsPerDelivery(w *workload) float64 {
	return r.cpuS * 1e6 / float64(r.casts*w.members)
}

func wireBytesPerMsg(r *repetition) float64 {
	return float64(r.delta.net.BytesOnWire+r.delta.udp.BytesOnWire) / float64(r.casts)
}

func column(reps []*repetition, f func(*repetition) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func perK(n int64, casts int) float64 { return float64(n) * 1000 / float64(casts) }

// nonNegative floors a time that had the tracer's own cost taken out of
// it: a handler cheaper than the tracer can resolve reads 0, not less.
func nonNegative(ns float64) float64 {
	if ns < 0 {
		return 0
	}
	return ns
}

// tracedCycles is how often the traced run repeats its three
// repetitions; timings are the median over the cycles.
const tracedCycles = 3

// The application handler is the benchmark's checker and the substrate
// is timed on its own, so neither counts as core's time.
var notCore = []spanName{spanDeliver, spanNetSend, spanNetCast, spanOtherUpcall}

// segment is one row of the breakdown: a share of a delivery's time.
type segment struct {
	name string
	ns   func(sp *tracer, cost spanCosts) float64 // over the whole data phase
}

// spanCosts is what one span costs the tracer itself (see spanCost).
type spanCosts struct{ inside, outside float64 }

// entryNs is the time the program spent under entry spans called name,
// the benchmark's checker and the substrate left out, with the tracer's
// own cost taken back out: the entry span's, and the parent-side cost
// of every span inside it.
func entryNs(sp *tracer, name spanName, cost spanCosts) float64 {
	return nonNegative(float64(sp.under(name, notCore...)) -
		cost.inside*float64(sp.get(name).calls) - cost.outside*float64(sp.spansUnder(name)))
}

var breakdown = []segment{
	{"core.cast_call (Member.Cast, all casts)", func(sp *tracer, c spanCosts) float64 { return entryNs(sp, spanCastCall, c) }},
	{"core.receive (per wire x wires)", func(sp *tracer, c spanCosts) float64 { return entryNs(sp, spanReceive, c) }},
	{"core.timer (sweeps, gossip, suspicion)", func(sp *tracer, c spanCosts) float64 { return entryNs(sp, spanTimer, c) }},
	{"core.drain_flush (batcher flush at barriers)", func(sp *tracer, c spanCosts) float64 { return entryNs(sp, spanDrainFlush, c) }},
	{"substrate (Network.Send + Network.Cast)", func(sp *tracer, _ spanCosts) float64 {
		return float64(sp.get(spanNetSend).total + sp.get(spanNetCast).total)
	}},
	{"netsim scheduler self time", func(sp *tracer, _ spanCosts) float64 { return float64(sp.get(spanSched).self) }},
	{"benchmark's own checker (app.deliver)", func(sp *tracer, _ spanCosts) float64 { return float64(sp.get(spanDeliver).total) }},
}

// runTraced produces the per-layer metrics. After a warm-up it repeats
// three repetitions tracedCycles times — plain (the baseline, and the
// source of every counter-derived metric), with the program's own
// observability plane on, and with spans recorded through the shims —
// and then runs the stand-alone probes. Each timing is the median over
// the cycles; a ratio is taken within a cycle, between neighbours.
func runTraced(w *workload, seed int64, spansPath string, out io.Writer) (*runResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs()))
	res := &runResult{Procs: w.procs(), Correct: true, Metrics: metricSet{}}
	m := res.Metrics
	for _, d := range perLayer {
		m.put(d.name, 0) // every metric is reported; what a workload lacks reads 0
	}
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }

	if _, err := oneRep(w, seed, runOptions{}); err != nil {
		return nil, err
	}
	var cost spanCosts
	cost.inside, cost.outside = spanCost()
	m.put("trace.span_cost_ns", cost.inside+cost.outside)
	capture := &wireCapture{}
	var first *repetition    // the first plain repetition: counters, crash phase
	var layerSpans []*tracer // traced data phases, for layers timed in place
	segs := make([][]float64, len(breakdown))
	var untraced, residuals []float64
	for cycle := 0; cycle < tracedCycles; cycle++ {
		plain, err := oneRep(w, seed, runOptions{crash: cycle == 0})
		if err != nil {
			return nil, err
		}
		res.tally(plain, w.crash && cycle == 0)
		if cycle == 0 {
			first = plain
		}
		observed, err := oneRep(w, seed, runOptions{obs: true})
		if err != nil {
			return nil, err
		}
		res.tally(observed, false)
		topts := runOptions{}
		if cycle == 0 {
			topts.capture = capture.see
		}
		keep := spansPath != "" && cycle == 0
		topts.trs = []*tracer{newTracer(keep)}
		for w.udp && len(topts.trs) < w.members { // one per member goroutine
			topts.trs = append(topts.trs, newTracer(keep))
		}
		traced, err := oneRep(w, seed, topts)
		if err != nil {
			return nil, err
		}
		res.tally(traced, false)
		if keep {
			for i, tr := range topts.trs {
				if err := tr.writeSpans(spansPath, i, i > 0); err != nil {
					return nil, err
				}
			}
		}

		add("wall_latency_p99_us", float64(plain.lat.wallP99)/1e3)
		add("obs.on_off_throughput_ratio", observed.msgsPerS()/plain.msgsPerS())
		add("trace.overhead_share", 1-traced.msgsPerS()/plain.msgsPerS())

		// Spans taken in place, over the traced repetition's data phase.
		sp := traced.spans
		deliveries := float64(traced.casts * w.members)
		add("core.cast_call_ns", entryNs(sp, spanCastCall, cost)/float64(max(sp.get(spanCastCall).calls, 1)))
		add("core.receive_ns_per_packet", entryNs(sp, spanReceive, cost)/float64(max(sp.get(spanReceive).calls, 1)))
		add("core.member_build_ms", traced.memberBuildNs/1e6)
		if traced.virtS > 0 {
			add("core.timer_ns_per_virt_s", entryNs(sp, spanTimer, cost)/traced.virtS)
			add("netsim.sched_self_ns_per_delivery", float64(sp.get(spanSched).self)/deliveries)
		}
		if dg := traced.delta.udp.Datagrams; w.udp && dg > 0 {
			add("netsim.udp_send_ns_per_datagram", float64(sp.get(spanNetSend).total+sp.get(spanNetCast).total)/float64(dg))
		}
		if len(traced.holds) > 0 {
			add("transport.hold_us_p50", float64(quantile(sortedCopy(traced.holds), 0.5))/1e3)
		}
		layerSpans = append(layerSpans, sp)

		// The breakdown, per delivery, against what the plain repetition
		// of the same cycle spent.
		sum := 0.0
		for i, s := range breakdown {
			us := s.ns(sp, cost) / deliveries / 1e3
			segs[i] = append(segs[i], us)
			sum += us
		}
		untraced = append(untraced, plain.cpuUsPerDelivery(w))
		residuals = append(residuals, 1-sum/plain.cpuUsPerDelivery(w))
	}

	// Exact per seed, or taken once: from the first plain repetition.
	casts := first.casts
	d := first.delta
	if !w.udp {
		m.put("virt_latency_p50_us", float64(first.lat.virtP50)/1e3)
		m.put("virt_latency_p99_us", float64(first.lat.virtP99)/1e3)
	}
	if w.crash {
		m.put("view_change_virt_ms", float64(first.vc.virtNs)/1e6)
		m.put("view_change_cpu_ms", first.vc.cpuS*1e3)
		m.put("netsim.view_change_packets", float64(first.vc.packets))
		m.put("netsim.view_change_bytes", float64(first.vc.bytes))
	}
	m.put("failed_ops_share", float64(res.Failed)/float64(res.Attempted))
	m.put("event.pool_news_per_msg", float64(d.pool.EventNews+d.pool.HeaderNews)/float64(casts))
	m.put("event.allocs_per_msg", float64(d.mallocs)/float64(casts))
	m.put("event.alloc_bytes_per_msg", float64(d.allocBytes)/float64(casts))
	if w.mach {
		routed := d.eng.DnBypass + d.eng.DnPartial + d.eng.DnFull + d.eng.UpBypass + d.eng.UpFull
		m.put("opt.bypass_hit_share", share(d.eng.DnBypass+d.eng.DnPartial+d.eng.UpBypass, routed))
		m.put("opt.interp_share", share(d.eng.DnFull+d.eng.UpFull, routed))
		m.put("opt.ctrl_compressed_share", share(d.eng.CtrlCompressed, d.eng.CtrlCompressed+d.eng.CtrlFull))
		m.put("opt.uncompressed_per_kmsg", perK(d.eng.Uncompressed, casts))
	}
	b := d.batch
	m.put("transport.subs_per_frame", share(b.SubPackets, b.Frames))
	m.put("transport.bytes_per_sub", share(b.FrameBytes, b.SubPackets))
	m.put("transport.delta_sub_share", share(b.DeltaSubs+b.PrefixSubs, b.SubPackets))
	m.put("transport.xfirst_delta_share", share(b.XFirstDelta, b.XFrames))
	m.put("transport.size_flush_share", share(b.SizeFlushes, b.Flushes))
	m.put("transport.barrier_flush_share", share(b.BarrierFlushes, b.Flushes))
	m.put("transport.holds_per_kframe", share(b.Holds*1000, b.Frames))
	m.put("transport.gen_bumps_per_kmsg", perK(b.GenBumps, casts))
	m.put("transport.resync_bumps_per_kmsg", perK(b.ResyncBumps, casts))
	m.put("netsim.gen_misses_per_kmsg", perK(d.net.GenMisses+d.udp.GenMisses, casts))
	m.put("netsim.resyncs_per_kmsg", perK(d.net.Resyncs+d.udp.Resyncs, casts))
	m.put("netsim.stale_frames_per_kmsg", perK(d.net.StaleGenFrames+d.udp.StaleGenFrames, casts))
	if w.udp {
		m.put("netsim.udp_datagrams_per_msg", float64(d.udp.Datagrams)/float64(casts))
		m.put("netsim.udp_send_errors", float64(d.udp.SendErrors))
		m.put("netsim.udp_unknown_source", float64(d.udp.UnknownSource))
	} else {
		m.put("netsim.packets_per_msg", float64(d.net.Sent)/float64(casts))
		m.put("netsim.dropped_share", share(d.net.Dropped, d.net.Sent+d.net.Duplicated))
		m.put("netsim.dup_share", share(d.net.Duplicated, d.net.Sent))
	}
	m.put("core.stray_packets_per_kmsg", perK(d.stray, casts))
	m.put("core.views_installed", float64(first.views))

	// Layers: in place where the stack runs interpreted, from the
	// two-member stack probe where the bypass hides it.
	payload := newPayloads(seed, w).next(0, kindData, 0)
	probeMsgs := min(20000, casts) // a probe need not outlast the workload it explains
	if len(payload) > 4096 {
		probeMsgs = min(2000, casts)
	}
	layerCasts := casts
	if w.mach {
		layerSpans, layerCasts = nil, probeMsgs
	}
	for _, mode := range []stack.Mode{stack.Imp, stack.Func} {
		for i := 0; i < tracedCycles; i++ {
			tr, err := stackProbe(w.stack, payload, mode, probeMsgs)
			if err != nil {
				res.note("stack probe (%v) failed: %v", mode, err)
				break
			}
			trav := tr.get(tr.name(spanTraverse))
			inner := float64(tr.spansUnder(tr.name(spanTraverse)))
			total := (float64(trav.total) - (cost.inside+cost.outside)*inner) / float64(probeMsgs)
			glue := (float64(trav.self) - cost.outside*inner) / float64(probeMsgs)
			if mode == stack.Imp {
				add("stack.imp_total_ns_per_msg", total)
				add("stack.imp_glue_ns_per_msg", nonNegative(glue))
				continue
			}
			add("stack.func_total_ns_per_msg", total)
			add("stack.func_glue_ns_per_msg", nonNegative(glue))
			for _, name := range []string{spanMarshal, spanUnmarshal} {
				if t := tr.get(tr.name(name)); t.calls > 0 {
					add(name+"_ns", nonNegative(float64(t.total)/float64(t.calls)-cost.inside))
				}
			}
			if w.mach {
				layerSpans = append(layerSpans, tr)
			}
		}
	}
	for _, sp := range layerSpans {
		for _, l := range layerNames {
			var calls int64
			for _, dir := range []string{"dn", "up"} {
				t := sp.get(sp.name("layers." + l + "." + dir))
				calls += t.calls
				if t.calls > 0 {
					add("layers."+l+"."+dir+"_self_ns", nonNegative(float64(t.total)/float64(t.calls)-cost.inside))
				}
			}
			if findMetric("layers."+l+".calls_per_msg") != nil && calls > 0 {
				add("layers."+l+".calls_per_msg", float64(calls)/float64(layerCasts))
			}
		}
	}

	// Batching stages, on wires captured from the first traced repetition.
	perFrame := int(share(b.SubPackets, b.Frames) + 0.5)
	for i := 0; i < tracedCycles; i++ {
		br := batcherProbe(capture.wires, perFrame, 20_000)
		if !br.intact {
			res.note("batcher probe: the walker did not give back the wires appended")
		}
		add("transport.batcher_append_ns_per_sub", br.appendNsPerSub)
		add("transport.batcher_flush_ns_per_frame", br.flushNsPerFrame)
		add("transport.walklink_ns_per_sub", br.walkNsPerSub)
	}

	// The bypass on its own, for the workload's stack and view size.
	for i := 0; i < tracedCycles; i++ {
		er, err := engineProbe(w.stack, w.members, payload, probeMsgs)
		if err != nil {
			res.note("engine probe: %v", err)
			break
		}
		add("opt.engine_build_ms", er.buildMs)
		add("opt.cast_dn_ns", er.castDnNs)
		add("opt.packet_up_ns", er.packetUpNs)
		add("opt.ccp_check_ns", er.ccpCheckNs)
	}
	recordNs, observeNs := obsProbe()
	m.put("obs.record_ns", recordNs)
	m.put("obs.histogram_observe_ns", observeNs)

	if w.udp {
		// What the closed loop looks like with the adaptive flush
		// controller left on, at a twentieth of the size: the share of
		// casts that waited 10 ms or more.
		small := w.scaled(0.05)
		stalled, err := oneRep(&small, seed, runOptions{adaptiveFlush: true})
		if err != nil {
			return nil, err
		}
		m.put("transport.hold_stall_share", stalled.lat.slowShare)
	}
	for name, v := range samples {
		m.put(name, v...)
	}

	// The breakdown: where a delivery's time goes, segment by segment,
	// against the CPU the plain repetition spent per delivery.
	fmt.Fprintf(out, "breakdown %s: us per delivery, median of %d traced repetitions, the tracer's own cost taken out\n", w.name, tracedCycles)
	sum := 0.0
	for i, s := range breakdown {
		fmt.Fprintf(out, "  %-48s %10.3f\n", s.name, median(segs[i]))
		sum += median(segs[i])
	}
	fmt.Fprintf(out, "  %-48s %10.3f\n", "sum of segments", sum)
	fmt.Fprintf(out, "  %-48s %10.3f\n", "untraced cpu_us_per_delivery", median(untraced))
	fmt.Fprintf(out, "  %-48s %9.1f%%  of untraced: CPU no span covers, less what tracing added\n", "residual", 100*median(residuals))
	m.put("trace.breakdown_residual_share", residuals...)
	return res, nil
}
