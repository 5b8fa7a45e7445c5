package main

import (
	"sync"

	"ensemble/internal/core"
	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// substrate is what both netsim.Endpoint and netsim.UDPNet offer a
// member: core.Network, core.Clock, and the drain-flush capability
// NewMember type-asserts for. The shim must offer the same set, or the
// member behind it batches and flushes differently from the one under
// test (shim_test.go holds it to that).
type substrate interface {
	core.Network
	core.Clock
	SetDrainFlush(func())
	InDrain() bool
}

// netShim stands between a member and its substrate and opens a span
// around every call that crosses it, in either direction.
type netShim struct {
	sub substrate
	tr  *tracer
	// capture, when set, sees every wire before the member does: the
	// batcher probe replays what it keeps.
	capture func(netsim.Packet)
}

func (s *netShim) Attach(addr event.Addr, recv func(netsim.Packet)) {
	s.sub.Attach(addr, func(p netsim.Packet) {
		if s.capture != nil {
			s.capture(p)
		}
		s.tr.begin(spanReceive, -1)
		recv(p)
		s.tr.end()
	})
}

func (s *netShim) Detach(addr event.Addr) { s.sub.Detach(addr) }

func (s *netShim) Send(from, to event.Addr, data []byte) {
	s.tr.begin(spanNetSend, -1)
	s.sub.Send(from, to, data)
	s.tr.end()
}

func (s *netShim) Cast(from event.Addr, data []byte) {
	s.tr.begin(spanNetCast, -1)
	s.sub.Cast(from, data)
	s.tr.end()
}

func (s *netShim) Now() int64 { return s.sub.Now() }

func (s *netShim) After(delay int64, fn func()) {
	s.sub.After(delay, func() {
		s.tr.begin(spanTimer, -1)
		fn()
		s.tr.end()
	})
}

func (s *netShim) SetDrainFlush(fn func()) {
	s.sub.SetDrainFlush(func() {
		s.tr.begin(spanDrainFlush, -1)
		fn()
		s.tr.end()
	})
}

func (s *netShim) InDrain() bool { return s.sub.InDrain() }

// udpShim adds the one capability only the socket substrate has.
type udpShim struct {
	netShim
	udp *netsim.UDPNet
}

func (s *udpShim) SetRebindHook(fn func(event.Addr)) { s.udp.SetRebindHook(fn) }

// ---- layer shims ----

// tracedPrefix marks the wrapper components: "traced:mnak" builds mnak
// and times its two handlers. core.NewMember builds its stack from
// component names alone, so registering wrappers beside the originals
// is the one way to reach the layers of a member from outside.
const tracedPrefix = "traced:"

// layerTrace is where wrapper components built from now on report; the
// traced run sets it before it constructs a group. Simulated groups run
// on one goroutine, so one tracer serves every member's layers.
var layerTrace *tracer

var registerTraced sync.Once

// tracedStack maps component names to their wrappers, registering them
// on first use.
func tracedStack(names []string) []string {
	registerTraced.Do(func() {
		for _, n := range layer.Names() {
			n := n
			build, err := layer.Lookup(n)
			if err != nil {
				panic(err)
			}
			layer.Register(tracedPrefix+n, func(cfg layer.Config) layer.State {
				return wrapState(build(cfg), layerTrace)
			})
		}
	})
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = tracedPrefix + n
	}
	return out
}

// metricLayerName is the layer's name as metric names spell it.
func metricLayerName(component string) string {
	if component == layers.PartialAppl {
		return "partialappl"
	}
	return component
}

// layerShim times one layer's handlers. Both execution models hand a
// layer a sink that only queues what it emits, so no other layer runs
// inside a handler and the span's length is the layer's self time.
type layerShim struct {
	inner  layer.State
	tr     *tracer
	dn, up spanName
}

func wrapState(st layer.State, tr *tracer) layer.State {
	n := metricLayerName(st.Name())
	return &layerShim{inner: st, tr: tr, dn: tr.name("layers." + n + ".dn"), up: tr.name("layers." + n + ".up")}
}

func (l *layerShim) Name() string { return l.inner.Name() }

func (l *layerShim) HandleUp(ev *event.Event, snk layer.Sink) {
	l.tr.begin(l.up, -1)
	l.inner.HandleUp(ev, snk)
	l.tr.end()
}

func (l *layerShim) HandleDn(ev *event.Event, snk layer.Sink) {
	l.tr.begin(l.dn, -1)
	l.inner.HandleDn(ev, snk)
	l.tr.end()
}

// DrainPending forwards the one optional interface the group runtime
// asserts on layer states (membership hands back casts it buffered
// during a view change).
func (l *layerShim) DrainPending() []layers.PendingApp {
	if d, ok := l.inner.(layers.PendingDrainer); ok {
		return d.DrainPending()
	}
	return nil
}

// buildTracedSim is core.NewClusterGroup spelled out, with a shim under
// every member and — where the stack runs interpreted — around every
// layer. The bypass engine derives its code from the component names,
// so MACH members keep the original names and their layers are timed by
// the stand-alone stack probe instead.
func buildTracedSim(w *workload, seed int64, handlers func(rank int) core.Handlers, tr *tracer, capture func(netsim.Packet)) (*core.ClusterGroup, error) {
	c := netsim.NewCluster(seed, w.profile)
	addrs := make([]event.Addr, w.members)
	for i := range addrs {
		addrs[i] = event.Addr(i + 1)
	}
	names := w.stack
	if !w.mach {
		layerTrace = tr
		names = tracedStack(w.stack)
	}
	g := &core.ClusterGroup{Cluster: c}
	for i := 0; i < w.members; i++ {
		ep := c.NewEndpoint(addrs[i])
		sh := &netShim{sub: ep, tr: tr}
		if i == w.members-1 {
			sh.capture = capture // one receiver's view of the traffic is enough
		}
		v := event.NewView("group", 1, addrs, i)
		newMember := core.NewMember
		if w.mach {
			newMember = core.NewOptimizedMember
		}
		tr.begin(spanMemberBuild, -1)
		m, err := newMember(sh, sh, v, names, stack.Func, handlers(i))
		tr.end()
		if err != nil {
			return nil, err
		}
		m.Start()
		g.Eps = append(g.Eps, ep)
		g.Members = append(g.Members, m)
	}
	return g, nil
}

// wireCapture keeps the first wires one receiver got from rank 0 (the
// sequencer: data casts, order announcements, acks), up to a byte
// budget, in arrival order — which on a clean link is the order rank 0
// handed them to its batcher.
type wireCapture struct {
	wires []capturedWire
	bytes int
}

const captureBudget = 4 << 20

func (c *wireCapture) see(p netsim.Packet) {
	if p.From != 1 || c.bytes >= captureBudget || transport.IsResync(p.Data) || len(p.Data) == 0 || p.Data[0] == 0 {
		return // another sender, full, or raw control traffic that never meets the batcher
	}
	c.wires = append(c.wires, capturedWire{cast: p.Cast, data: append([]byte(nil), p.Data...)})
	c.bytes += len(p.Data)
}
