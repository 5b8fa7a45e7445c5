package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ensemble/internal/core"
	"ensemble/internal/deploy"
	"ensemble/internal/event"
	"ensemble/internal/netsim"
	"ensemble/internal/obs"
	"ensemble/internal/stack"
)

// udpTimeout bounds every wait on the sockets: a cast not delivered at
// both members by then has failed.
const udpTimeout = 30 * time.Second

// udpGroup is the members of one repetition, each on its own loopback
// socket and its own Run goroutine.
type udpGroup struct {
	nets    []*netsim.UDPNet
	members []*core.Member
	running sync.WaitGroup
}

// bindLoopback opens n sockets on ephemeral loopback ports that know
// each other. A UDPNet takes its peer table at construction, so the
// ports are found by binding once and binding again on the same ports.
func bindLoopback(n int) ([]*netsim.UDPNet, error) {
	peers := map[event.Addr]string{}
	for i := 0; i < n; i++ {
		u, err := netsim.NewUDPNet(event.Addr(i+1), "127.0.0.1:0", nil)
		if err != nil {
			return nil, err
		}
		peers[event.Addr(i+1)] = u.LocalAddr()
		u.Close()
	}
	nets := make([]*netsim.UDPNet, n)
	for i := range nets {
		u, err := netsim.NewUDPNet(event.Addr(i+1), peers[event.Addr(i+1)], peers)
		if err != nil {
			for _, o := range nets[:i] {
				o.Close()
			}
			return nil, err
		}
		nets[i] = u
	}
	return nets, nil
}

func buildUDP(w *workload, handlers func(rank int) core.Handlers, opts runOptions) (*udpGroup, error) {
	trs := opts.trs
	nets, err := bindLoopback(w.members)
	if err != nil {
		return nil, err
	}
	g := &udpGroup{nets: nets}
	closeNets := func() {
		for _, u := range nets {
			u.Close()
		}
	}
	addrs := make([]event.Addr, w.members)
	for i := range addrs {
		addrs[i] = event.Addr(i + 1)
	}
	for i, u := range nets {
		var net core.Network = u
		var clock core.Clock = u
		if trs != nil {
			sh := &udpShim{netShim: netShim{sub: u, tr: trs[i]}, udp: u}
			if i == w.members-1 {
				sh.capture = opts.capture
			}
			net, clock = sh, sh
		}
		newMember := core.NewMember
		if w.mach {
			newMember = core.NewOptimizedMember
		}
		if trs != nil {
			trs[i].begin(spanMemberBuild, -1)
		}
		m, err := newMember(clock, net, event.NewView("group", 1, addrs, i), w.stack, stack.Func, handlers(i))
		if trs != nil {
			trs[i].end()
		}
		if err != nil {
			closeNets() // nothing runs yet: no member to stop, no goroutine to wait for
			return nil, err
		}
		if !opts.adaptiveFlush {
			// Under a closed loop the adaptive flush controller's holds
			// wait for the 50 ms sweep tick: once every outstanding cast
			// sits in a held frame nothing arrives to end the hold. Left
			// on, one cast in seven waits 50 ms and the run measures the
			// sweep interval at 3% CPU (README.md has the numbers; the
			// traced run reports them as transport.hold_stall_share).
			m.Batcher().DisableAdaptiveFlush()
		}
		m.Start()
		g.members = append(g.members, m)
	}
	for _, u := range nets {
		u := u
		g.running.Add(1)
		go func() {
			defer g.running.Done()
			u.Run()
		}()
	}
	return g, nil
}

// onMember runs fn on member r's Run goroutine and waits for it.
func (g *udpGroup) onMember(r int, fn func()) {
	done := make(chan struct{})
	g.nets[r].Do(func() { fn(); close(done) })
	select {
	case <-done:
	case <-time.After(udpTimeout):
	}
}

// close stops the members, flushes what they batched, closes the
// sockets and waits for the Run goroutines to return.
func (g *udpGroup) close() {
	for r, m := range g.members {
		m := m
		g.onMember(r, m.Shutdown)
	}
	for _, u := range g.nets {
		u.Sync()
		u.Close()
	}
	g.running.Wait()
}

func (g *udpGroup) counters() counters {
	var c counters
	for r, m := range g.members {
		m := m
		g.onMember(r, func() { c.addMember(m) })
		s := g.nets[r].Stats()
		accumulate(&c.udp, &s, 1)
	}
	c.readProcess()
	return c
}

// udpRep runs one repetition of the loopback workload: a closed loop,
// one client per member, each keeping w.window casts outstanding — a
// cast is outstanding until every member has delivered it.
func udpRep(w *workload, seed int64, opts runOptions) (*repetition, error) {
	if err := deploy.LoopbackAvailable(); err != nil {
		return nil, fmt.Errorf("%s needs loopback UDP sockets: %w", w.name, err)
	}
	n := w.members
	rep := &repetition{casts: w.casts(), wallLat: make([]int64, w.casts())}
	chk := newChecker(n, w.rounds, w.total)
	pay := newPayloads(seed, w)
	base := time.Now()

	var g *udpGroup
	var hello atomic.Int32
	helloDone := make(chan struct{})
	left := make([]atomic.Int32, w.casts()) // deliveries still owed, per cast
	for i := range left {
		left[i].Store(int32(n))
	}
	submitted := make([]int64, w.casts()) // ns since base
	issued := make([]atomic.Int32, n)     // casts handed to each client so far
	var completed atomic.Int32
	var endWall atomic.Int64
	var endCPU atomic.Int64
	dataDone := make(chan struct{})

	// submit hands one cast to origin's client. Either member's goroutine
	// may call it (whichever delivered last frees the slot), so the cast
	// takes its round number on origin's own goroutine: rounds then leave
	// in the order they are numbered. Latency runs from the call.
	nextRound := make([]int, n)
	submit := func(origin int) {
		at := int64(time.Since(base))
		g.nets[origin].Do(func() {
			round := nextRound[origin]
			nextRound[origin]++
			submitted[origin*w.rounds+round] = at
			buf := pay.next(origin, kindData, round)
			if opts.trs != nil {
				tr := opts.trs[origin]
				tr.begin(spanCastCall, msgID(origin, round))
				defer tr.end()
			}
			g.members[origin].Cast(buf)
		})
	}
	handlers := func(rank int) core.Handlers {
		h := core.Handlers{OnCast: func(origin int, payload []byte) {
			if len(payload) > 6 && payload[6] == kindHello {
				if hello.Add(1) == int32(n) {
					close(helloDone)
				}
				return
			}
			idx := chk.deliver(rank, origin, payload)
			if idx < 0 || left[idx].Add(-1) != 0 {
				return
			}
			// Delivered everywhere: the cast's client may send its next.
			now := int64(time.Since(base))
			o, round := idx/w.rounds, idx%w.rounds
			rep.wallLat[round*n+o] = now - submitted[idx]
			if int(issued[o].Add(1)) <= w.rounds {
				submit(o)
			}
			if completed.Add(1) == int32(w.casts()) {
				endWall.Store(now)
				endCPU.Store(int64(cpuNow()))
				close(dataDone)
			}
		}}
		if opts.trs != nil {
			h = opts.trs[rank].wrapHandlers(h)
		}
		return h
	}

	startSetup := time.Now()
	var err error
	if g, err = buildUDP(w, handlers, opts); err != nil {
		return nil, err
	}
	defer g.close()
	if opts.obs {
		reg, rec := obs.NewRegistry(), obs.NewRecorder(n, 1<<14)
		for r, m := range g.members {
			r, m := r, m
			g.onMember(r, func() { m.EnableObs(reg.Scope(fmt.Sprintf("member%d/", r)), rec.Track(r)) })
		}
	}
	g.nets[0].Do(func() { g.members[0].Cast(pay.next(0, kindHello, 0)) })
	select {
	case <-helloDone:
	case <-time.After(udpTimeout):
		return nil, fmt.Errorf("%s: set-up cast reached %d of %d members", w.name, hello.Load(), n)
	}
	rep.setupS = time.Since(startSetup).Seconds()
	if opts.setupOnly {
		return rep, nil
	}
	if opts.trs != nil {
		// A tracer belongs to its member's goroutine: read and reset there.
		for r, tr := range opts.trs {
			tr := tr
			g.onMember(r, func() {
				rep.memberBuildNs += float64(tr.get(spanMemberBuild).total) / float64(n)
				tr.reset() // spans from here on are the data phase's
			})
		}
	}

	before := g.counters()
	startCPU, startWall := cpuNow(), int64(time.Since(base))
	for o := 0; o < n; o++ {
		first := w.window
		if first > w.rounds {
			first = w.rounds
		}
		issued[o].Store(int32(first))
		for i := 0; i < first; i++ {
			submit(o)
		}
	}
	select {
	case <-dataDone:
	case <-time.After(udpTimeout):
		endWall.Store(int64(time.Since(base)))
		endCPU.Store(int64(cpuNow()))
	}
	rep.wallS = float64(endWall.Load()-startWall) / 1e9
	rep.cpuS = (time.Duration(endCPU.Load()) - startCPU).Seconds()
	for _, u := range g.nets {
		u.Sync() // what the members batched last reaches the socket counters
	}
	rep.delta = g.counters().since(before)
	// The members keep running until close; stop them delivering into
	// the log the verdict reads.
	for r, m := range g.members {
		m := m
		g.onMember(r, m.Shutdown)
	}
	rep.verdict, rep.digest = chk.finish(), chk.digest()
	for r, tr := range opts.trs {
		tr := tr
		g.onMember(r, func() {
			if rep.spans == nil {
				rep.spans = tr.freeze()
			} else {
				rep.spans.merge(tr)
			}
		})
	}
	for _, m := range g.members {
		rep.views += m.Stats().Views
	}
	rep.heapMB = liveHeapMB()
	return rep, nil
}
