package core

import (
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/obs"
	"ensemble/internal/opt"
)

// Observability wiring. A member exports its counters into a metrics
// registry scope and records its externally visible activity — wires
// out, wires in, deliveries, timer sweeps, view installs, barrier
// flushes, and MACH bypass routing — onto a flight-recorder track.
// Everything recorded is a deterministic function of the member's event
// sequence and uses the member's virtual clock, so under the netsim
// cluster protocol a Run and a RunConcurrent of the same seed produce
// byte-identical flight dumps.

// EnableObs wires the member into a registry scope and a flight track.
// Call it before traffic flows (registration is not re-entrant); either
// argument may be nil to enable only the other half.
func (m *Member) EnableObs(sc *obs.Scope, trk *obs.Track) {
	m.trk = trk
	if sc != nil {
		sc.Func("casts_delivered", func() int64 { return m.stats.CastsDelivered })
		sc.Func("sends_delivered", func() int64 { return m.stats.SendsDelivered })
		sc.Func("packets_out", func() int64 { return m.stats.PacketsOut })
		sc.Func("packets_in", func() int64 { return m.stats.PacketsIn })
		sc.Func("stray_packets", func() int64 { return m.stats.StrayPackets })
		sc.Func("views", func() int64 { return m.stats.Views })
		sc.Func("batch/sub_packets", func() int64 { return m.batch.Stats().SubPackets })
		sc.Func("batch/frames", func() int64 { return m.batch.Stats().Frames })
		sc.Func("batch/frame_bytes", func() int64 { return m.batch.Stats().FrameBytes })
		sc.Func("batch/flushes", func() int64 { return m.batch.Stats().Flushes })
		sc.Func("batch/flush_size", func() int64 { return m.batch.Stats().SizeFlushes })
		sc.Func("batch/flush_entry_end", func() int64 { return m.batch.Stats().EntryEndFlushes })
		sc.Func("batch/flush_barrier", func() int64 { return m.batch.Stats().BarrierFlushes })
		sc.Func("batch/delta_subs", func() int64 { return m.batch.Stats().DeltaSubs })
		sc.Func("batch/prefix_subs", func() int64 { return m.batch.Stats().PrefixSubs })
		sc.Func("batch/run_subs", func() int64 { return m.batch.Stats().RunSubs })
		sc.Func("batch/verbatim_subs", func() int64 { return m.batch.Stats().VerbatimSubs })
		// What the current view's layers hold until stability or an ack
		// releases it: messages, and the bytes of their storage and
		// index (each read is O(1) per layer).
		sc.Func("retain/msgs", func() int64 { msgs, _ := m.retained(); return msgs })
		sc.Func("retain/bytes", func() int64 { _, bytes := m.retained(); return bytes })
		// Latency distributions (histogram.go): each sample is one atomic
		// bucket add, so the observed hot paths keep their 0 allocs/op
		// and ≥0.97 obs-ratio gates with these on. Times come from the
		// member's clock — virtual under netsim, monotonic under UDPNet.
		m.latE2E = sc.Histogram("lat/e2e_ns")
		m.latHold = sc.Histogram("lat/hold_ns")
		m.latView = sc.Histogram("lat/view_ns")
		m.batch.SetHoldObserver(m.latHold.Observe)
	}
	if m.optimized && sc != nil {
		// MACH dispatch accounting, read from the engines' own counters
		// at snapshot time: each name reads the member's lifetime total
		// (the engines of earlier views, carried at install, plus the
		// current one), and its /window twin the current view's engine
		// alone. Two sums split every route: mach/ccp_hit counts the
		// routes compiled code carried to the end, mach/ccp_miss those
		// the interpreted stack took from the start.
		life := func(name string, read func(opt.EngineStats) int64) {
			sc.Func(name, func() int64 { return read(m.engStats()) })
		}
		windowed := func(name string, read func(opt.EngineStats) int64) {
			life(name, read)
			sc.Func(name+"/window", func() int64 { return read(m.eng.Stats()) })
		}
		windowed("mach/ccp_hit", func(st opt.EngineStats) int64 { return st.DnBypass + st.UpBypass })
		windowed("mach/ccp_miss", func(st opt.EngineStats) int64 { return st.DnFull + st.UpFull })
		for p := opt.PathID(0); p < opt.NumPaths; p++ {
			windowed("mach/path/"+p.String(), func(st opt.EngineStats) int64 { return st.PathHits[p] })
		}
		life("mach/dn_bypass", func(st opt.EngineStats) int64 { return st.DnBypass })
		life("mach/dn_full", func(st opt.EngineStats) int64 { return st.DnFull })
		life("mach/up_bypass", func(st opt.EngineStats) int64 { return st.UpBypass })
		life("mach/up_full", func(st opt.EngineStats) int64 { return st.UpFull })
		life("mach/uncompressed", func(st opt.EngineStats) int64 { return st.Uncompressed })
		life("mach/undecodable", func(st opt.EngineStats) int64 { return st.Undecodable })
		life("mach/ctrl_compressed", func(st opt.EngineStats) int64 { return st.CtrlCompressed })
		life("mach/ctrl_full", func(st opt.EngineStats) int64 { return st.CtrlFull })
		life("mach/parked", func(st opt.EngineStats) int64 { return st.Parked })
		life("mach/released", func(st opt.EngineStats) int64 { return st.Released })
	}
	if m.optimized && trk != nil {
		// Each routing decision is a flight record.
		m.obsRoute = func(up bool, pid opt.PathID) {
			dir := obs.DirDn
			if up {
				dir = obs.DirUp
			}
			if pid != opt.PathFullStack {
				m.ccpHits++
				m.trk.Record(m.sim.Now(), obs.KindCCPHit, dir, uint8(pid), m.ccpHits)
				return
			}
			m.ccpMisses++
			m.trk.Record(m.sim.Now(), obs.KindCCPMiss, dir, uint8(pid), m.ccpMisses)
		}
		m.eng.OnRoute = m.obsRoute
	}
}

// retained sums what the current view's retaining layers hold.
func (m *Member) retained() (msgs, bytes int64) {
	for _, st := range m.eng.States() {
		if r, ok := st.(interface{ Retained() (msgs, bytes int64) }); ok {
			n, b := r.Retained()
			msgs, bytes = msgs+n, bytes+b
		}
	}
	return msgs, bytes
}

// RegisterPoolMetrics exports the process-global event/header pool
// counters (gets/puts/news) into reg under "pool/". Counts are shared
// by every member in the process, so register them once per registry.
func RegisterPoolMetrics(reg *obs.Registry) {
	reg.Func("pool/event_gets", func() int64 { return event.ReadPoolCounters().EventGets })
	reg.Func("pool/event_puts", func() int64 { return event.ReadPoolCounters().EventPuts })
	reg.Func("pool/event_news", func() int64 { return event.ReadPoolCounters().EventNews })
	reg.Func("pool/header_gets", func() int64 { return event.ReadPoolCounters().HeaderGets })
	reg.Func("pool/header_puts", func() int64 { return event.ReadPoolCounters().HeaderPuts })
	reg.Func("pool/header_news", func() int64 { return event.ReadPoolCounters().HeaderNews })
}

// EnableObs wires the whole cluster group into a registry and a flight
// recorder: the shared network's counters under "netsim/", the global
// pools under "pool/", and each member under "member<rank>/" with its
// flight records on rec's rank-matching track. Call before running
// traffic.
func (g *ClusterGroup) EnableObs(reg *obs.Registry, rec *obs.Recorder) {
	if reg != nil {
		g.Cluster.Net().RegisterMetrics(reg)
		RegisterPoolMetrics(reg)
	}
	for i, m := range g.Members {
		var sc *obs.Scope
		if reg != nil {
			sc = reg.Scope(fmt.Sprintf("member%d/", i))
		}
		m.EnableObs(sc, rec.Track(i))
	}
}
