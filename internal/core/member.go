// Package core is the group runtime: it glues a protocol stack to a
// transport and a network, drives the housekeeping timers, and reacts to
// membership events by rebuilding the stack for each new view — which is
// how Ensemble switches protocol stacks on the fly (paper §4.1.3, [25]).
// It also implements Ensemble's heuristic for calculating a stack from
// the set of properties an application requires (§3.2).
package core

import (
	"fmt"
	"sync/atomic"

	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/obs"
	"ensemble/internal/opt"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// Handlers are the application's upcalls. All run on the simulator
// goroutine; payload slices may be retained and must not be modified
// (a received payload shares its buffer with every other receiver of the
// transmission), events may not be retained.
type Handlers struct {
	// OnCast delivers a multicast from origin (a rank in the current
	// view; the member's own casts are delivered too when the stack has
	// a local layer).
	OnCast func(origin int, payload []byte)
	// OnSend delivers a point-to-point message from origin.
	OnSend func(origin int, payload []byte)
	// OnView announces a newly installed view.
	OnView func(v *event.View)
	// OnSuspect reports failure suspicions (ranks in the current view).
	OnSuspect func(ranks []int)
	// OnBlock asks the application to pause sending during a view
	// change; sends during the blocked period are buffered and flushed
	// into the next view.
	OnBlock func()
	// OnStable reports the multicast stability vector.
	OnStable func(vec []int64)
	// OnExit reports that this member's graceful Leave completed; the
	// member is detached afterwards. (A member expelled involuntarily
	// does not exit: it restarts as a singleton group and rejoins
	// through the partition-merge protocol.)
	OnExit func()
}

// MemberStats counts a member's externally visible activity.
type MemberStats struct {
	CastsDelivered, SendsDelivered int64
	PacketsOut, PacketsIn          int64
	StrayPackets                   int64 // wrong epoch or undecodable
	Views                          int64
}

// Network is what a member needs from its substrate: endpoint
// registration, point-to-point and multicast transmission, and a drain
// barrier. A substrate hands the member its packets and timers in
// bursts (a scheduler drain phase, a socket read burst); SetDrainFlush
// registers what to run on the member's goroutine at the end of each
// burst, and InDrain reports whether one is in progress — so wires
// batched across a burst leave once, at its end. The simulated network
// (a netsim.Cluster's Endpoint) and the real UDP transport
// (netsim.UDPNet) both implement it.
type Network interface {
	Attach(addr event.Addr, recv func(netsim.Packet))
	Detach(addr event.Addr)
	Send(from, to event.Addr, data []byte)
	Cast(from event.Addr, data []byte)
	SetDrainFlush(func())
	InDrain() bool
}

// Clock schedules the member's housekeeping. Virtual (netsim.Endpoint)
// and real-time (netsim.UDPNet) clocks both implement it; callbacks
// must be serialized with packet delivery.
type Clock interface {
	Now() int64
	After(delay int64, fn func())
}

// Member is one group member: a protocol stack attached to a network
// endpoint.
type Member struct {
	sim  Clock
	net  Network
	addr event.Addr

	names []string
	mode  stack.Mode
	h     Handlers

	view   *event.View
	cfg    layer.Config
	exited bool

	// eng is the stack runtime of the current view, rebuilt at every
	// install: a plain engine, or — on optimized members — one with the
	// machine-generated bypass, which dispatches per event on the
	// composed CCP.
	eng       *opt.Engine
	optimized bool

	// held is application traffic the old stack buffered during a view
	// change, between install and its resubmission in the new view.
	held []layers.PendingApp

	// pendingView defers a stack rebuild to the end of the current
	// scheduling run: an EView surfaces while the old stack may still be
	// flushing its final events (the view announcement itself) to the
	// network, and those must leave under the old epoch.
	pendingView *event.View

	// viewTag digests the current view's full membership for the epoch
	// tag on every packet.
	viewTag uint64
	// epoch is the current view's epoch prefix, which the batcher gathers
	// in front of every wire the engine emits. It tags a packet with the
	// full view identity: the sequence number plus viewTag. Neither alone
	// suffices — a partitioned member installs its own next view with the
	// same sequence number as the survivors' next view, and one
	// coordinator can install *different* views with the same sequence
	// number when a regular view change races a partition merge. Only
	// identical membership means identical epoch.
	epoch []byte
	// known remembers every address ever seen in a view, for partition
	// merge probing (merge.go).
	known map[event.Addr]bool
	// ticks counts housekeeping sweeps (merge probes run every few).
	ticks int64
	// grantSeq/grantMembers hold an outstanding merge grant awaiting the
	// other partition's acknowledgment; grantTick ages it out.
	grantSeq     int64
	grantMembers []event.Addr
	grantTick    int64

	// busy/inside assert the single-goroutine discipline: a member's
	// entry points (packet receive, timers, application calls) must be
	// serialized onto one goroutine — the stacks and pools hold no
	// locks. busy is an atomic flag an intruding goroutine trips over;
	// inside marks legal same-goroutine re-entry (a handler calling
	// Cast, install resubmitting buffered sends). The real enforcement
	// is the race detector over the concurrent netsim harness; this
	// assert names the broken discipline instead of corrupting state.
	busy   atomic.Int32
	inside bool

	stats MemberStats

	// batch coalesces outgoing wires into per-destination frames. Flush
	// policy: inside a substrate drain (net.InDrain) frames accumulate
	// across the whole burst and flush at its barrier; an entry from
	// outside one (a direct call between runs) flushes when the member's
	// outermost entry point returns. Either way nothing is ever left
	// pending once control leaves the member, so per-peer FIFO order is
	// exactly send order.
	batch *transport.Batcher

	// trk is the member's flight-recorder track (nil when observability
	// is off); obsRoute is the MACH routing hook EnableObs installed, so
	// install can re-wire it onto each rebuilt engine. ccpHits and
	// ccpMisses are the member-lifetime tallies the flight records carry
	// (plain ints — the member is single-goroutine). engCarry sums an
	// optimized member's counters of the engines of earlier views (nil
	// until its first view change), so the metrics read lifetime totals
	// across installs. See obs.go.
	trk       *obs.Track
	obsRoute  func(up bool, pid opt.PathID)
	ccpHits   int64
	ccpMisses int64
	engCarry  *opt.EngineStats

	// Latency histograms (EnableObs creates them under the member's
	// scope; nil-safe when observability is off): latE2E samples own
	// casts submit→deliver — a genuine end-to-end figure, since on the
	// total-order stack the origin's own delivery waits for the
	// sequencer round trip; latHold samples the batcher's per-frame
	// queue residency under the adaptive flush controller; latView
	// samples view-install→first-delivery, the traffic-resumption lag
	// of a membership change.
	latE2E  *obs.Histogram
	latHold *obs.Histogram
	latView *obs.Histogram
	// castT is the pending own-cast timestamp ring feeding latE2E:
	// castSubmits counts submissions (slot castSubmits%castQCap),
	// castPops counts own-cast deliveries, and a pop reads its slot
	// only while the window proves it unoverwritten — deeper backlogs
	// drop samples instead of allocating or mispairing. install()
	// forfeits outstanding samples (castPops = castSubmits): pending
	// casts are resubmitted under the new view and would otherwise
	// pair deliveries with stale pushes forever after.
	castT       [castQCap]int64
	castSubmits int64
	castPops    int64
	// installT is the last view install awaiting its first delivery
	// (-1 when quiescent or unobserved).
	installT int64
}

// castQCap bounds the pending own-cast timestamp ring (power of two).
const castQCap = 256

// NewMember attaches a member at addr running the named layer stack
// (top first) under the given execution mode, with view v0 as the
// initial membership. Call Start to begin the housekeeping timers.
func NewMember(sim Clock, net Network, v0 *event.View, names []string, mode stack.Mode, h Handlers) (*Member, error) {
	return newMember(sim, net, v0, names, mode, h, false)
}

// NewOptimizedMember is NewMember with the machine-generated bypass
// (MACH, §4.1) wrapped around the stack: common-case traffic takes the
// compiled fast path with compressed headers, everything else — and all
// membership machinery — the full stack. The bypass is re-derived and
// recompiled at every view change, realizing the paper's outlook of
// combining generated code with Ensemble's support for switching
// protocol stacks on the fly.
func NewOptimizedMember(sim Clock, net Network, v0 *event.View, names []string, mode stack.Mode, h Handlers) (*Member, error) {
	return newMember(sim, net, v0, names, mode, h, true)
}

func newMember(sim Clock, net Network, v0 *event.View, names []string, mode stack.Mode, h Handlers, optimized bool) (*Member, error) {
	m := &Member{
		sim:       sim,
		net:       net,
		addr:      v0.Members[v0.Rank],
		names:     append([]string(nil), names...),
		mode:      mode,
		h:         h,
		optimized: optimized,
		known:     map[event.Addr]bool{},
		installT:  -1,
	}
	net.Attach(m.addr, m.receive)
	m.batch = transport.NewBatcher(net, m.addr, 0)
	// The clock lets flush points hold sub-threshold frames on
	// fast-cadence chains so the next entry's wires join them
	// (transport/frame.go).
	m.batch.SetClock(sim.Now)
	net.SetDrainFlush(m.flushWires)
	if rb, ok := net.(interface{ SetRebindHook(func(event.Addr)) }); ok {
		// A UDP peer rebinding means a restarted process with no decode
		// mirrors: restart our delta chains toward it proactively.
		rb.SetRebindHook(m.peerRebound)
	}
	if err := m.install(v0); err != nil {
		net.Detach(m.addr)
		return nil, err
	}
	return m, nil
}

// Batcher exposes the member's wire batcher: its counters for
// benchmarks, and BumpGenerations for tests that force a chain restart.
func (m *Member) Batcher() *transport.Batcher { return m.batch }

// flushWires is the drain-flush hook a cluster Endpoint runs at the end
// of each drain phase: it tells the stack the burst has ended (so the
// sequencer announces its open order run into this flush), then emits
// every frame batched across the phase (minus what the adaptive
// controller holds for the next one). The
// flight records fire only when the flush did something — emitted
// frames or held some back: the concurrent scheduler skips members with
// empty mailboxes (which by the drain-flush invariant batched nothing
// new), so an unconditional record here would diverge between Run and
// RunConcurrent.
func (m *Member) flushWires() {
	if m.enter("batch flush") {
		defer m.leave()
	}
	emitted := m.endBurst(transport.FlushBarrier)
	if m.trk == nil {
		return
	}
	if emitted > 0 {
		m.trk.Record(m.sim.Now(), obs.KindFlush, obs.DirDn, 0, m.batch.Stats().Flushes)
	}
	if held := m.batch.PendingSubs(); held > 0 {
		m.trk.Record(m.sim.Now(), obs.KindFlushDecision, obs.DirDn,
			uint8(transport.FlushBarrier), int64(held))
	}
}

// endBurst ends the member's input burst: the stack gets its
// event.EBurstEnd (the sequencer announces its open order run), then
// the batcher flushes for cause; it reports how many frames went out.
func (m *Member) endBurst(cause transport.FlushCause) int {
	if !m.exited {
		m.eng.Submit(event.BurstEndEv())
	}
	return m.batch.FlushFor(cause)
}

// peerRebound restarts the cross-frame delta chains toward a peer whose
// process rebound (UDP deployments; see UDPNet.SetRebindHook). Runs on
// the member's execution goroutine like every other entry point.
func (m *Member) peerRebound(to event.Addr) {
	if m.enter("peer rebind") {
		defer m.leave()
	}
	if m.exited {
		return
	}
	m.batch.BumpPeer(to)
}

// Engine exposes the bypass engine of an optimized member (nil for
// plain members, whose engine derives no bypass); its stats show the
// bypass/full-stack routing split.
func (m *Member) Engine() *opt.Engine {
	if !m.optimized {
		return nil
	}
	return m.eng
}

// engStats is the member's lifetime routing counters: the engines of
// earlier views' and the current one's.
func (m *Member) engStats() opt.EngineStats {
	if m.engCarry == nil {
		return m.eng.Stats()
	}
	return m.engCarry.Add(m.eng.Stats())
}

// enter asserts that this goroutine has exclusive use of the member and
// reports whether this call took it: the caller then owes a leave.
// Re-entry from the owning goroutine (a handler calling back into the
// member) is legal, takes nothing and owes nothing. Every entry point
// opens with `if m.enter(..) { defer m.leave() }` — two methods rather
// than one returning its release func, which cost a closure allocation
// per packet, cast and timer.
func (m *Member) enter(what string) bool {
	if m.inside {
		return false
	}
	if !m.busy.CompareAndSwap(0, 1) {
		panic(fmt.Sprintf("core: concurrent %s on member %d — packet, timer, and application callbacks must be serialized per member", what, m.addr))
	}
	m.inside = true
	return true
}

// leave hands the member back after an outermost enter.
func (m *Member) leave() {
	// No barrier is coming for work done outside a drain phase, so
	// the entry is the burst: end it and flush batched wires before
	// handing the member back. Inside a drain phase both are deferred to
	// the phase barrier (flushWires), where the flush is one frame per
	// destination per phase.
	if !m.net.InDrain() {
		m.endBurst(transport.FlushEntryEnd)
	}
	m.inside = false
	m.busy.Store(0)
}

// Start begins the periodic housekeeping timer (retransmission sweeps,
// stability gossip, failure detection).
func (m *Member) Start() {
	m.sim.After(m.cfg.SweepInterval, m.tick)
}

func (m *Member) tick() {
	if m.enter("timer tick") {
		defer m.leave()
	}
	if m.exited {
		return
	}
	m.eng.Timer(m.sim.Now())
	m.settle()
	m.ticks++
	if m.trk != nil {
		m.trk.Record(m.sim.Now(), obs.KindTimerSweep, obs.DirUp, 0, m.ticks)
	}
	if m.ticks%8 == 0 && m.hasMembership() {
		m.maybeProbe()
	}
	m.sim.After(m.cfg.SweepInterval, m.tick)
}

// hasMembership reports whether the stack runs the membership protocol
// (merging is meaningless without it).
func (m *Member) hasMembership() bool {
	for _, n := range m.names {
		if n == layers.Membership {
			return true
		}
	}
	return false
}

// settle applies a deferred view change once the stack has gone quiet.
func (m *Member) settle() {
	for m.pendingView != nil && !m.exited {
		v := m.pendingView
		m.pendingView = nil
		m.rebuild(v)
	}
}

// View returns the current view.
func (m *Member) View() *event.View { return m.view }

// Addr returns the member's network address.
func (m *Member) Addr() event.Addr { return m.addr }

// Stats returns a snapshot of the member's counters.
func (m *Member) Stats() MemberStats { return m.stats }

// Exited reports whether the member has left the group.
func (m *Member) Exited() bool { return m.exited }

// Cast multicasts payload to the group.
func (m *Member) Cast(payload []byte) {
	if m.enter("Cast") {
		defer m.leave()
	}
	m.doCast(payload)
}

func (m *Member) doCast(payload []byte) {
	if m.exited {
		return
	}
	m.resubmitHeld()
	// Root of the causal chain: the submission is recorded (and its
	// timestamp ringed for the e2e histogram) before the stack runs,
	// because a bouncing self-delivery can complete inside this call.
	m.castSubmits++
	if m.trk != nil || m.latE2E != nil {
		now := m.sim.Now()
		if m.trk != nil {
			m.trk.Record(now, obs.KindCastSubmit, obs.DirDn, 0, m.castSubmits)
		}
		m.castT[m.castSubmits%castQCap] = now
	}
	m.eng.Cast(payload)
	m.settle()
}

// Send sends payload point-to-point to the member at rank dst.
func (m *Member) Send(dst int, payload []byte) error {
	if m.enter("Send") {
		defer m.leave()
	}
	return m.doSend(dst, payload)
}

func (m *Member) doSend(dst int, payload []byte) error {
	if m.exited {
		return fmt.Errorf("core: member has exited")
	}
	if dst < 0 || dst >= m.view.N() {
		return fmt.Errorf("core: rank %d out of range for view of %d", dst, m.view.N())
	}
	m.resubmitHeld()
	m.eng.Send(dst, payload)
	m.settle()
	return nil
}

// Shutdown stops a member without the membership protocol: it flushes
// whatever the batcher holds, detaches from the network, and marks the
// member exited so late timers and packets become no-ops. This is the
// graceful teardown for deployments on static views (no membership
// layer, so Leave has no protocol to run) — an ensemble-node schedules
// it on the endpoint's Run goroutine, then Syncs and closes the socket.
// Stacks with membership should prefer Leave, which excises the member
// from the view first.
func (m *Member) Shutdown() {
	if m.enter("Shutdown") {
		defer m.leave()
	}
	if m.exited {
		return
	}
	m.endBurst(transport.FlushExplicit) // force out held frames too; no future entry will
	m.exit()
}

// Leave requests a graceful departure; the member exits when the
// membership protocol installs the view that excludes it.
func (m *Member) Leave() {
	if m.enter("Leave") {
		defer m.leave()
	}
	if m.exited {
		return
	}
	lv := event.Alloc()
	lv.Dir, lv.Type = event.Dn, event.ELeave
	m.eng.Submit(lv)
	m.settle()
}

// install builds a fresh stack for view v.
func (m *Member) install(v *event.View) error {
	// A new view is a new epoch: flush what the old one batched and
	// restart every cross-frame delta chain, so no frame ever deltas
	// across an epoch boundary (peers rebuild their stacks too, and
	// their mirrors with them).
	m.batch.BumpGenerations()
	m.view = v
	m.viewTag = viewDigest(v)
	m.epoch = appendUvarint(appendUvarint(m.epoch[:0], uint64(v.ID.Seq)), m.viewTag)
	for _, a := range v.Members {
		m.known[a] = true
	}
	m.cfg = layer.DefaultConfig(v)
	newEngine := opt.NewStackEngine
	if m.optimized {
		newEngine = opt.NewEngine
	}
	eng, err := newEngine(m.names, m.cfg, m.mode)
	if err != nil {
		return err
	}
	if m.optimized && m.eng != nil {
		if m.engCarry == nil {
			m.engCarry = new(opt.EngineStats)
		}
		*m.engCarry = m.engCarry.Add(m.eng.Stats())
	}
	eng.Deliver = m.deliverApp
	eng.Control = m.appEvent
	eng.SendWire = m.sendWire
	eng.OnRoute = m.obsRoute // re-wire observability onto the rebuilt engine
	eng.Init(v)
	m.eng = eng
	m.stats.Views++
	if m.trk != nil {
		m.trk.Record(m.sim.Now(), obs.KindViewInstall, obs.DirUp, 0, m.stats.Views)
	}
	// Forfeit outstanding e2e samples: pending casts are resubmitted
	// (rebuild) under new submission indices, and pairing their
	// deliveries with the pre-change pushes would skew every later sample.
	m.castPops = m.castSubmits
	if m.latView != nil {
		// Arm the view-resumption sample; the first post-install
		// delivery closes it.
		m.installT = m.sim.Now()
	}
	return nil
}

// deliverApp hands an application payload to the handlers.
func (m *Member) deliverApp(origin int, payload []byte, cast bool) {
	if cast {
		m.stats.CastsDelivered++
		if m.trk != nil || m.latE2E != nil || m.latView != nil {
			m.observeDeliver(origin, true)
		}
		if m.h.OnCast != nil {
			m.h.OnCast(origin, payload)
		}
		return
	}
	m.stats.SendsDelivered++
	if m.trk != nil || m.latView != nil {
		m.observeDeliver(origin, false)
	}
	if m.h.OnSend != nil {
		m.h.OnSend(origin, payload)
	}
}

// observeDeliver is deliverApp's observability tail: the flight record,
// the own-cast end-to-end latency sample, and the view-resumption
// sample. Pulled out so the unobserved delivery path stays one branch.
func (m *Member) observeDeliver(origin int, cast bool) {
	now := m.sim.Now()
	if m.trk != nil {
		m.trk.Record(now, obs.KindDeliver, obs.DirUp, 0, m.stats.CastsDelivered+m.stats.SendsDelivered)
	}
	if cast && origin == m.view.Rank {
		// The i-th own-cast delivery pairs with the i-th submission
		// (total order preserves per-sender order); the slot is read
		// only while the ring proves it unoverwritten.
		m.castPops++
		if m.castPops <= m.castSubmits && m.castSubmits-m.castPops < castQCap {
			m.latE2E.Observe(now - m.castT[m.castPops%castQCap])
		}
	}
	if m.installT >= 0 {
		// First delivery since the view install: the stack is passing
		// traffic again.
		m.latView.Observe(now - m.installT)
		m.installT = -1
	}
}

// appEvent handles the non-data events exiting the top of the stack
// (the engine hands application deliveries to deliverApp).
func (m *Member) appEvent(ev *event.Event) {
	switch ev.Type {
	case event.EView:
		m.pendingView = ev.View
	case event.ESuspect:
		if m.h.OnSuspect != nil {
			m.h.OnSuspect(ev.Ranks)
		}
	case event.EBlock:
		if m.h.OnBlock != nil {
			m.h.OnBlock()
		}
	case event.EStable:
		if m.h.OnStable != nil {
			m.h.OnStable(ev.Stability)
		}
	case event.EExit:
		m.exit()
	}
}

// rebuild drains traffic buffered during the flush from the old stack,
// replaces the stack, notifies the application, and resubmits the
// buffered traffic in the new view — in that order: a resubmitted cast
// is reflected to its own sender at once, and that delivery belongs to
// the view the application has just been told about.
func (m *Member) rebuild(v *event.View) {
	for _, st := range m.eng.States() {
		if d, ok := st.(layers.PendingDrainer); ok {
			m.held = append(m.held, d.DrainPending()...)
		}
	}
	if err := m.install(v); err != nil {
		// Components that built once build again; failure here means the
		// registry changed under us, which is a programming error.
		panic(fmt.Sprintf("core: rebuilding stack for %v: %v", v, err))
	}
	if m.h.OnView != nil {
		m.h.OnView(v)
	}
	m.resubmitHeld()
}

// resubmitHeld sends what rebuild is holding into the current view. It
// also runs ahead of anything the application sends from inside OnView,
// which was submitted later.
func (m *Member) resubmitHeld() {
	held := m.held
	m.held = nil
	for _, p := range held {
		if p.IsCast {
			m.doCast(p.Payload)
			continue
		}
		if rank := m.view.RankOf(p.Dst); rank >= 0 {
			_ = m.doSend(rank, p.Payload)
		}
		// Sends to members that did not survive the view change are
		// dropped, as virtual synchrony requires.
	}
}

func (m *Member) exit() {
	if m.exited {
		return
	}
	m.exited = true
	m.net.Detach(m.addr)
	if m.h.OnExit != nil {
		m.h.OnExit()
	}
}

// sendWire is the engine's exit to the network: it hands a bare wire
// image to the batcher behind the epoch prefix, and the batcher gathers
// the two during the call. Data packets always travel framed — even a
// lone wire is a one-sub frame — so the first byte of every batched
// transmission is the frame magic and can never be confused with an
// epoch varint. Merge control traffic (merge.go) bypasses this path and
// stays raw.
func (m *Member) sendWire(cast bool, dst int, wire []byte) {
	m.stats.PacketsOut++
	if m.trk != nil {
		m.trk.Record(m.sim.Now(), obs.KindPktOut, obs.DirDn, 0, m.stats.PacketsOut)
	}
	if cast {
		m.batch.Cast(m.epoch, wire)
		return
	}
	m.batch.Send(m.view.Members[dst], m.epoch, wire)
}

// receive decodes a packet and injects it at the bottom of the stack.
func (m *Member) receive(p netsim.Packet) {
	if m.enter("packet receive") {
		defer m.leave()
	}
	if m.exited {
		return
	}
	m.stats.PacketsIn++
	if m.trk != nil {
		m.trk.Record(m.sim.Now(), obs.KindPktIn, obs.DirUp, 0, m.stats.PacketsIn)
	}
	data := p.Data
	// Resync requests ride raw (never framed) and must be peeled off
	// before the epoch parse: 0xBA has the uvarint continuation bit set,
	// so parsing it as an epoch prefix would misread it.
	if transport.IsResync(data) {
		if cast, gen, ok := transport.ParseResync(data); ok {
			m.batch.HandleResync(p.From, cast, gen)
		} else {
			m.stats.StrayPackets++
		}
		return
	}
	// binary.Uvarint signals both truncation (n == 0) and a varint
	// overflowing 64 bits (n < 0); either way the offset is unusable and
	// slicing with it would panic or misparse, so bail before touching
	// data[n:].
	epoch, n := uvarint(data)
	if n <= 0 {
		m.stats.StrayPackets++
		return
	}
	if epoch == 0 {
		// The reserved control epoch: partition-merge probes and grants.
		if !m.handleControl(data[n:]) {
			m.stats.StrayPackets++
		}
		return
	}
	if int64(epoch) != m.view.ID.Seq {
		m.stats.StrayPackets++
		return
	}
	data = data[n:]
	tag, n := uvarint(data)
	if n <= 0 || tag != m.viewTag {
		m.stats.StrayPackets++
		return
	}
	// The engine dispatches on the wire magic: compressed images hit the
	// receive bypass, full images the stack.
	if !m.eng.Packet(data[n:]) {
		m.stats.StrayPackets++
	}
	m.settle()
}
