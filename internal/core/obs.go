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
		// Latency distributions (histogram.go): each sample is one atomic
		// bucket add, so the observed hot paths keep their 0 allocs/op
		// and ≥0.97 obs-ratio gates with these on. Times come from the
		// member's clock — virtual under netsim, monotonic under UDPNet.
		m.latE2E = sc.Histogram("lat/e2e_ns")
		m.latHold = sc.Histogram("lat/hold_ns")
		m.latView = sc.Histogram("lat/view_ns")
		m.batch.SetHoldObserver(m.latHold.Observe)
	}
	if m.optimized {
		// MACH dispatch accounting. Each routing decision lands on exactly
		// one per-path windowed counter — one atomic add per event, zero
		// allocations — whose lifetime total feeds the dashboards and
		// whose window (reset at every view install) is the per-view mix.
		// Three sums over the path family split every route: mach/ccp_hit
		// counts the routes compiled code carried to the end,
		// mach/handoff those it handed to the interpreted stack part-way
		// (an arrival at the layer whose common case failed, a cast's
		// self-delivery copy above local), and mach/ccp_miss the
		// fall-throughs to the interpreted stack from the start.
		for p := opt.PathID(0); p < opt.NumPaths; p++ {
			w := &obs.Window{}
			m.pathWin[p] = w
			if sc != nil {
				sc.AdoptWindow("mach/path/"+p.String(), w)
			}
		}
		if sc != nil {
			sum := func(read func(*obs.Window) int64, in func(opt.PathID) bool) int64 {
				var n int64
				for p := opt.PathID(0); p < opt.NumPaths; p++ {
					if in(p) {
						n += read(m.pathWin[p])
					}
				}
				return n
			}
			handoff := func(p opt.PathID) bool { return p == opt.PathUpHandoff || p == opt.PathDnCastPartial }
			hit := func(p opt.PathID) bool { return p != opt.PathFullStack && !handoff(p) }
			sc.Func("mach/ccp_hit", func() int64 { return sum((*obs.Window).Total, hit) })
			sc.Func("mach/ccp_hit/window", func() int64 { return sum((*obs.Window).Window, hit) })
			sc.Func("mach/handoff", func() int64 { return sum((*obs.Window).Total, handoff) })
			sc.Func("mach/handoff/window", func() int64 { return sum((*obs.Window).Window, handoff) })
			sc.Func("mach/ccp_miss", func() int64 { return m.pathWin[opt.PathFullStack].Total() })
			sc.Func("mach/ccp_miss/window", func() int64 { return m.pathWin[opt.PathFullStack].Window() })
			sc.Func("mach/dn_bypass", func() int64 { return m.eng.Stats().DnBypass })
			sc.Func("mach/dn_partial", func() int64 { return m.eng.Stats().DnPartial })
			sc.Func("mach/dn_full", func() int64 { return m.eng.Stats().DnFull })
			sc.Func("mach/up_bypass", func() int64 { return m.eng.Stats().UpBypass })
			sc.Func("mach/up_partial", func() int64 { return m.eng.Stats().UpPartial })
			sc.Func("mach/up_full", func() int64 { return m.eng.Stats().UpFull })
			sc.Func("mach/uncompressed", func() int64 { return m.eng.Stats().Uncompressed })
			sc.Func("mach/undecodable", func() int64 { return m.eng.Stats().Undecodable })
			sc.Func("mach/ctrl_compressed", func() int64 { return m.eng.Stats().CtrlCompressed })
			sc.Func("mach/ctrl_full", func() int64 { return m.eng.Stats().CtrlFull })
			sc.Func("mach/parked", func() int64 { return m.eng.Stats().Parked })
			sc.Func("mach/released", func() int64 { return m.eng.Stats().Released })
		}
		m.obsRoute = func(up bool, pid opt.PathID) {
			dir := obs.DirDn
			if up {
				dir = obs.DirUp
			}
			m.pathWin[pid].Inc()
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
