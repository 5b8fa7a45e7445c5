package main

import (
	"fmt"
	"runtime"
	"time"

	"ensemble/internal/core"
	"ensemble/internal/event"
	"ensemble/internal/netsim"
	"ensemble/internal/obs"
	"ensemble/internal/stack"
)

// Simulated runs advance in fixed slices of virtual time, so the point
// at which a phase is seen to be over — and with it every counter read
// there — is the same on every run of a seed.
const (
	simSlice = int64(4e6) // 4 ms virtual
	// simDeadline bounds the wait for stragglers after the last
	// scheduled round; a cast not delivered everywhere by then failed.
	simDeadline = int64(20e9)
	// crashDeadline bounds the view change (MeasureViewChange's bound).
	crashDeadline = int64(60e9)
	crashSlice    = int64(100e6)
)

// runOptions selects what surrounds the program under test in one
// repetition; the zero value is the untraced, unobserved run.
type runOptions struct {
	// trs record spans through the shims: one tracer for the simulator's
	// one goroutine, one per member under UDP, where each member runs on
	// its own.
	trs []*tracer
	obs bool // switch the program's own observability plane on
	// crash runs the crash phase after the data phase, on workloads that
	// have one; setupOnly stops after set-up.
	crash     bool
	setupOnly bool
	// capture, with a tracer, sees the wires one member receives.
	capture func(netsim.Packet)
	// adaptiveFlush leaves the batcher's adaptive flush controller on
	// under UDP, where the workload switches it off (see buildUDP).
	adaptiveFlush bool
}

// buildSim constructs the group through the public constructors; with a
// tracer it builds the same group member by member through the shims.
func buildSim(w *workload, seed int64, handlers func(rank int) core.Handlers, opts runOptions) (*core.ClusterGroup, error) {
	if opts.trs != nil {
		return buildTracedSim(w, seed, handlers, opts.trs[0], opts.capture)
	}
	if w.mach {
		return core.NewOptimizedClusterGroup(w.members, w.profile, seed, w.stack, stack.Func, handlers)
	}
	return core.NewClusterGroup(w.members, w.profile, seed, w.stack, stack.Func, handlers)
}

// simRep runs one repetition of a simulated workload.
func simRep(w *workload, seed int64, opts runOptions) (*repetition, error) {
	var tr *tracer
	if opts.trs != nil {
		tr = opts.trs[0]
	}
	n := w.members
	rep := &repetition{casts: w.casts(), wallLat: make([]int64, w.casts()), virtLat: make([]int64, w.casts())}
	chk := newChecker(n, w.rounds, w.total)
	submittedWall := make([]time.Time, w.casts())

	var g *core.ClusterGroup
	var t0Virt int64 // virtual time of round 0
	hello := 0       // hello deliveries
	completed := 0   // casts delivered at every member
	got := make([]int32, w.casts())
	lastAt := make([]int64, w.casts())
	var endWall time.Time
	var endCPU time.Duration
	lastView := make([]*event.View, n)
	installedAt := make([]int64, n)

	handlers := func(rank int) core.Handlers {
		h := core.Handlers{
			OnCast: func(origin int, payload []byte) {
				if len(payload) > 6 && payload[6] == kindHello {
					hello++
					return
				}
				idx := chk.deliver(rank, origin, payload)
				if idx < 0 {
					return
				}
				if now := g.Eps[rank].Now(); now > lastAt[idx] {
					lastAt[idx] = now
				}
				if got[idx]++; got[idx] != int32(n) {
					return
				}
				origin, round := idx/w.rounds, idx%w.rounds
				now := time.Now()
				rep.virtLat[round*n+origin] = lastAt[idx] - (t0Virt + int64(round)*w.interval)
				rep.wallLat[round*n+origin] = int64(now.Sub(submittedWall[idx]))
				if completed++; completed == w.casts() {
					endWall, endCPU = now, cpuNow()
				}
			},
			OnView: func(v *event.View) {
				lastView[rank] = v
				installedAt[rank] = g.Eps[rank].Now()
			},
		}
		if tr != nil {
			h = tr.wrapHandlers(h)
		}
		return h
	}

	// Set-up: construct, then one cast from rank 0 delivered everywhere.
	startSetup := time.Now()
	var err error
	if g, err = buildSim(w, seed, handlers, opts); err != nil {
		return nil, err
	}
	g.Cluster.SetShards(w.shards)
	// The window every throughput harness in internal/bench uses: at
	// least two 200 us rounds per drain, so frames have subs to coalesce.
	g.Cluster.EnableAdaptiveQuantum(400_000, 100_000_000)
	if opts.obs {
		g.EnableObs(obs.NewRegistry(), obs.NewRecorder(n, 1<<14))
	}
	pay := newPayloads(seed, w)
	cast := func(r int, kind byte, round int) {
		buf := pay.next(r, kind, round)
		if kind == kindData {
			submittedWall[r*w.rounds+round] = time.Now()
		}
		if tr != nil {
			tr.begin(spanCastCall, msgID(r, round))
			defer tr.end()
		}
		g.Members[r].Cast(buf)
	}
	g.Do(0, 0, func() { cast(0, kindHello, 0) })
	for i := 0; hello < n && i < 1000; i++ {
		g.Run(simSlice)
	}
	if hello < n {
		return nil, fmt.Errorf("%s: set-up cast reached %d of %d members", w.name, hello, n)
	}
	rep.setupS = time.Since(startSetup).Seconds()
	if opts.setupOnly {
		return rep, nil
	}
	if tr != nil {
		rep.memberBuildNs = float64(tr.get(spanMemberBuild).total) / float64(n)
		for _, m := range g.Members {
			m.Batcher().SetHoldObserver(func(ns int64) { rep.holds = append(rep.holds, ns) })
		}
		tr.reset() // spans from here on are the data phase's
	}

	// Data phase: every submit is on the scheduler's heap before the
	// clock starts, at its exact virtual instant, so the generator is
	// never late however long the simulation takes to get there.
	t0Virt = g.Cluster.Sim().Now()
	for r := 0; r < n; r++ {
		r, round := r, 0
		submit := func() {
			cast(r, kindData, round)
			round++
		}
		for k := 0; k < w.rounds; k++ {
			g.Do(r, int64(k)*w.interval, submit)
		}
	}
	before := simCounters(g)
	startCPU, startWall := cpuNow(), time.Now()
	limit := t0Virt + int64(w.rounds)*w.interval + simDeadline
	for completed < w.casts() && g.Cluster.Sim().Now() < limit {
		if tr != nil {
			tr.begin(spanSched, 0)
		}
		g.Run(simSlice)
		if tr != nil {
			tr.end()
		}
	}
	if completed < w.casts() {
		endWall, endCPU = time.Now(), cpuNow()
	}
	rep.wallS = endWall.Sub(startWall).Seconds()
	rep.cpuS = (endCPU - startCPU).Seconds()
	rep.virtS = float64(g.Cluster.Sim().Now()-t0Virt) / 1e9
	rep.delta = simCounters(g).since(before)
	rep.verdict, rep.digest = chk.finish(), chk.digest()
	if tr != nil {
		rep.spans = tr.freeze()
	}

	if w.crash && opts.crash {
		rep.vc = crashOne(g, n-1, lastView, installedAt, tr)
	}
	for _, m := range g.Members {
		rep.views += m.Stats().Views
	}
	rep.heapMB = liveHeapMB()
	runtime.KeepAlive(g) // the group's buffers are what live_heap_mb weighs
	return rep, nil
}

func simCounters(g *core.ClusterGroup) counters {
	var c counters
	c.net = g.Cluster.Net().Stats()
	for _, m := range g.Members {
		c.addMember(m)
	}
	c.readProcess()
	return c
}

// crashOne stops member victim without the membership protocol and runs
// until every survivor has installed a view without it.
func crashOne(g *core.ClusterGroup, victim int, lastView []*event.View, installedAt []int64, tr *tracer) viewChange {
	for r := range lastView {
		lastView[r], installedAt[r] = nil, 0
	}
	gone := g.Members[victim].Addr()
	before := g.Cluster.Net().Stats()
	t0 := g.Cluster.Sim().Now()
	startCPU := cpuNow()
	g.Do(victim, 0, func() { g.Members[victim].Shutdown() })
	done := func() bool {
		for r := range lastView {
			if r != victim && (lastView[r] == nil || lastView[r].RankOf(gone) >= 0) {
				return false
			}
		}
		return true
	}
	for !done() && g.Cluster.Sim().Now() < t0+crashDeadline {
		if tr != nil {
			tr.begin(spanSched, 0)
		}
		g.Run(crashSlice)
		if tr != nil {
			tr.end()
		}
	}
	after := g.Cluster.Net().Stats()
	vc := viewChange{
		cpuS:    (cpuNow() - startCPU).Seconds(),
		packets: after.Sent - before.Sent,
		bytes:   after.BytesOnWire - before.BytesOnWire,
		agreed:  agreedView(lastView, victim, gone, len(lastView)-1),
	}
	for r, at := range installedAt {
		if r != victim && at-t0 > vc.virtNs {
			vc.virtNs = at - t0
		}
	}
	return vc
}
