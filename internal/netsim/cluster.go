package netsim

// The simulated network. A Cluster is the one scheduler every simulated
// group runs on — a clock (Sim), the medium's shared tables (Net) and a
// deterministic sharded scheduler with per-member execution:
//
//   - Endpoints are partitioned into shards (contiguous blocks, so
//     hierarchical groups land shard-local); each shard owns an event
//     heap, a time floor, a seeded RNG, and a trace buffer (see
//     shard.go). The per-shard heaps are authoritative: only the
//     scheduler phases pop events, in (time, insertion) order.
//   - Each member owns an Endpoint: a Network+Clock facade whose
//     callbacks run on that member's goroutine only.
//   - Execution alternates three phases per round, each parallel over
//     a work-stealing pool in RunConcurrent and inline in Run. Commit:
//     every shard replays its members' effect logs in canonical member
//     order, drawing from the shard RNG and pushing deliveries onto
//     shard heaps — cross-shard deliveries queue in per-(source,
//     target) outboxes, ingested at the barrier in canonical order.
//     Route: every shard pops its batch window, appending packets and
//     timer callbacks to owning members' mailboxes in pop order.
//     Drain: members with pending mail drain it — the only phase where
//     member code runs — recording sends, casts, timers, and detaches
//     into member-local effect logs instead of touching the Net.
//
// Because RNGs are only consulted during commit/route (never during
// drain), every draw comes from the destination-independent shard of
// the *emitting* member, and all cross-shard hand-off happens at
// barriers in canonical order, a given (seed, shard count) yields one
// canonical delivery order: Run and RunConcurrent produce
// byte-identical delivery traces. The concurrent mode buys no
// *reordering* — it buys real parallel execution of member stacks and
// shard scheduling between barriers, which is what makes routing and
// drains scale with cores instead of serializing on one global heap.

import (
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/transport"
)

// Cluster is an N-member deterministic network simulation with
// per-member mailboxes. Build one with NewCluster, create one Endpoint
// per member, optionally SetShards, then drive it with Run or
// RunConcurrent.
type Cluster struct {
	sim  *Sim
	net  *Net
	seed int64

	eps    []*Endpoint
	byAddr map[event.Addr]int

	// nshards is the requested shard count; shards is the frozen
	// partition, built at the first run.
	nshards int
	shards  []*shard
	frozen  bool
	// pending buffers Enqueue work submitted before the shard partition
	// froze (workload setup typically precedes SetShards).
	pending []shardEvent

	// quantum widens the batch window: all events within quantum of the
	// earliest pending time are routed before the members run. Zero
	// batches exact virtual-time ties only. EnableAdaptiveQuantum scales
	// it between qMin and qMax from observed per-shard routed-event
	// densities; qMax == 0 means it was never called.
	quantum    int64
	qMin, qMax int64

	tracing bool
	running bool
}

// NewCluster builds a cluster simulation with a seeded RNG and the
// given link profile.
func NewCluster(seed int64, profile Profile) *Cluster {
	return &Cluster{
		sim: &Sim{},
		net: &Net{
			profile: profile,
			eps:     map[event.Addr]bool{},
			walker:  transport.NewFrameWalker(transport.EpochPrefixUvarints, true),
		},
		seed:    seed,
		byAddr:  map[event.Addr]int{},
		nshards: 1,
	}
}

// Sim exposes the cluster's virtual clock (for Now).
func (c *Cluster) Sim() *Sim { return c.sim }

// Net exposes the medium's shared tables (for Stats, Partition,
// SetFilter, Detach).
func (c *Cluster) Net() *Net { return c.net }

// SetShards sets how many scheduler shards the endpoints are split
// into (contiguous blocks in endpoint-creation order). One shard — the
// default — reproduces the unsharded global-barrier schedule exactly.
// More shards change the canonical schedule (each shard draws from its
// own RNG stream) but keep it a pure function of (seed, shard count):
// Run and RunConcurrent remain byte-identical to each other. Must be
// called before the first run; the partition freezes at first use.
func (c *Cluster) SetShards(n int) {
	if c.frozen {
		panic("netsim: SetShards after the shard partition froze (first run)")
	}
	if n < 1 {
		n = 1
	}
	c.nshards = n
}

// freeze builds the shard partition: nshards contiguous blocks of the
// endpoint order (clamped so every shard owns at least one endpoint).
// Endpoints created after the freeze (a late-joining group, say) are
// assigned round-robin by index in NewEndpoint.
func (c *Cluster) freeze() {
	if c.frozen {
		return
	}
	c.frozen = true
	k := c.nshards
	if k > len(c.eps) {
		k = len(c.eps)
	}
	if k < 1 {
		k = 1
	}
	c.shards = make([]*shard, k)
	for i := range c.shards {
		c.shards[i] = newShard(c, i, k)
	}
	for i, ep := range c.eps {
		s := c.shards[i*k/len(c.eps)]
		ep.shard = s
		s.eps = append(s.eps, ep)
	}
	for _, ev := range c.pending {
		c.eps[ev.idx].shard.push(ev)
	}
	c.pending = nil
}

// EnableAdaptiveQuantum sets the batch window: events within the
// window of the earliest pending time are routed together, so members
// whose deliveries land close in virtual time actually run in parallel
// in RunConcurrent and their wires coalesce. Deliveries are never
// reordered across batches; a window only affects how much work each
// barrier round hands the members. A window wider than the link latency
// can schedule a member's response into the past of the current batch;
// the scheduler clamps such times forward to the shard's floor, which
// stretches the profile's timing. Without this call the window is zero:
// exact virtual-time ties only.
//
// A controller scales the window between min and max from observed
// load (min == max is a fixed window): after each round, if every shard
// routed fewer than 4 events per member the window doubles (batches are
// too fine to coalesce or parallelize), and if any shard routed more
// than 32 events per member it halves (batches are so coarse that
// virtual-time fidelity and memory suffer). The thresholds scale with
// the *shard* population, not the cluster's: with per-shard routing the
// denominator of "events per member" is the shard a member shares a
// heap with, so one hot shard inside a mostly-idle cluster is enough to
// hold (or shrink) the window. The controller reads only routed-event
// counts — identical between Run and RunConcurrent by construction — so
// adaptive runs remain byte-identical per seed across both modes. min
// is clamped to at least 1ns (a zero quantum could never double).
func (c *Cluster) EnableAdaptiveQuantum(min, max int64) {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	c.qMin, c.qMax = min, max
	if c.quantum < min {
		c.quantum = min
	}
	if c.quantum > max {
		c.quantum = max
	}
}

// adaptQuantum is the per-round controller step over the last route
// phase's per-shard routed counts. Exposed as a method (rather than
// inlined in run) so the threshold scaling is unit-testable.
func (c *Cluster) adaptQuantum() {
	halve, double := false, true
	for _, s := range c.shards {
		if len(s.eps) == 0 {
			continue
		}
		if s.routed > 32*int64(len(s.eps)) {
			halve = true
		}
		if s.routed >= 4*int64(len(s.eps)) {
			double = false
		}
	}
	if halve && c.quantum > c.qMin {
		c.quantum /= 2
		if c.quantum < c.qMin {
			c.quantum = c.qMin
		}
	} else if double && !halve && c.quantum < c.qMax {
		c.quantum *= 2
		if c.quantum > c.qMax {
			c.quantum = c.qMax
		}
	}
}

// EnableTrace starts recording the delivery trace (sends at commit
// time, deliveries and drops at delivery time, in canonical order).
func (c *Cluster) EnableTrace() {
	c.tracing = true
	for _, s := range c.shards {
		s.trace = s.trace[:0]
	}
}

// TraceString returns the recorded delivery trace: the per-shard trace
// buffers concatenated in shard order. Identical seeds, workloads, and
// shard counts yield byte-identical traces in Run and RunConcurrent.
func (c *Cluster) TraceString() string {
	if len(c.shards) == 1 {
		return string(c.shards[0].trace)
	}
	var out []byte
	for _, s := range c.shards {
		out = append(out, s.trace...)
	}
	return string(out)
}

// Endpoint is one member's attachment to the cluster: it implements the
// member Network and Clock contracts (structurally; core.Network and
// core.Clock), but defers all shared-state mutation to the scheduler's
// commit phase. All Endpoint methods must be called either from the
// owning member's callbacks or from the driving goroutine while no run
// is in progress.
type Endpoint struct {
	c     *Cluster
	idx   int
	addr  event.Addr
	shard *shard

	recv     func(Packet)
	mailbox  []mail
	now      int64
	effects  []effect
	spare    [][]byte
	detached bool

	// flush, when set, runs at the end of every drain — core.Member
	// installs its batcher flush here so wires coalesced across a drain
	// phase are emitted exactly once, at the phase barrier. draining
	// lets the member distinguish scheduler-driven entry (defer the
	// flush to the barrier) from direct calls between runs (flush on
	// exit, since no barrier is coming).
	flush    func()
	draining bool
}

type mail struct {
	t   int64
	pkt Packet
	fn  func()
}

type effKind uint8

const (
	effSend effKind = iota
	effCast
	effAfter
	effPost
	effDetach
)

type effect struct {
	kind  effKind
	base  int64
	to    event.Addr
	data  []byte
	delay int64
	fn    func()
}

// NewEndpoint registers a member slot. Endpoints created before the
// first run are partitioned into contiguous shard blocks; their
// creation order is the canonical member order of the commit phase.
// Endpoints created after the shard partition froze join shards
// round-robin by index (still deterministic).
func (c *Cluster) NewEndpoint(addr event.Addr) *Endpoint {
	if c.running {
		panic("netsim: NewEndpoint during a run")
	}
	if _, dup := c.byAddr[addr]; dup {
		panic(fmt.Sprintf("netsim: duplicate cluster endpoint %d", addr))
	}
	ep := &Endpoint{c: c, idx: len(c.eps), addr: addr}
	c.byAddr[addr] = ep.idx
	c.eps = append(c.eps, ep)
	if c.frozen {
		s := c.shards[ep.idx%len(c.shards)]
		ep.shard = s
		s.eps = append(s.eps, ep)
	}
	return ep
}

// Addr returns the endpoint's network address.
func (ep *Endpoint) Addr() event.Addr { return ep.addr }

// SetDrainFlush installs fn to run on this member's goroutine at the
// end of every drain phase, after the mailbox has been processed. The
// intended use is batched-wire flushing: anything fn emits lands in the
// effect log and is committed at the same barrier as the drain's other
// effects. The invariant that keeps Run and RunConcurrent identical —
// the scheduler skips members with empty mailboxes — is that a member
// with an empty mailbox batched nothing *new* since its last drain,
// which holds because members only batch while handling mail (and
// flush direct calls immediately; see InDrain). An adaptive flush
// controller may carry held frames across drains, but a hold decision
// depends only on the member's virtual clock and its own append
// history, so a skipped drain leaves the held set untouched and
// identical in both modes; the member's sweep timers guarantee a
// future mailbox entry that ages the holds out.
func (ep *Endpoint) SetDrainFlush(fn func()) { ep.flush = fn }

// InDrain reports whether the endpoint is currently inside its drain
// phase (and a SetDrainFlush hook is installed to run at its end).
func (ep *Endpoint) InDrain() bool { return ep.draining && ep.flush != nil }

// Attach implements the member network contract. The recv callback runs
// on this member's goroutine (in RunConcurrent) at the packet's
// delivery time.
func (ep *Endpoint) Attach(addr event.Addr, recv func(Packet)) {
	if addr != ep.addr {
		panic(fmt.Sprintf("netsim: cluster endpoint is member %d, not %d", ep.addr, addr))
	}
	ep.recv = recv
	ep.c.net.attach(addr)
}

// Detach implements the member network contract; the detach takes
// effect at the round barrier after its commit (so a cast committed by
// another shard in the same round still fans to — and drops at — the
// detaching endpoint), and in-flight packets count as dropped.
func (ep *Endpoint) Detach(addr event.Addr) {
	if addr != ep.addr {
		return
	}
	ep.effects = append(ep.effects, effect{kind: effDetach, base: ep.now})
}

// Send transmits point-to-point. The data is copied; the caller may
// reuse its buffer immediately.
func (ep *Endpoint) Send(from, to event.Addr, data []byte) {
	ep.effects = append(ep.effects, effect{kind: effSend, base: ep.now, to: to, data: ep.snapshot(data)})
}

// Cast transmits a multicast to every attached endpoint except the
// sender. The data is copied.
func (ep *Endpoint) Cast(from event.Addr, data []byte) {
	ep.effects = append(ep.effects, effect{kind: effCast, base: ep.now, data: ep.snapshot(data)})
}

// Now implements the member clock: the virtual time of the packet or
// timer this member is currently handling.
func (ep *Endpoint) Now() int64 { return ep.now }

// After implements the member clock: fn runs on this member's goroutine
// delay nanoseconds after the event being handled.
func (ep *Endpoint) After(delay int64, fn func()) {
	ep.effects = append(ep.effects, effect{kind: effAfter, base: ep.now, delay: delay, fn: fn})
}

// Post schedules fn to run on the member owning the target endpoint,
// delay nanoseconds after the event being handled — the deterministic
// cross-member handoff. A relay member bridging two groups uses it to
// hand work to its peer endpoint without calling into another member's
// stack directly (which would violate member affinity). fn runs on the
// target member's goroutine during a later drain phase; if target is
// not a cluster endpoint the post is silently discarded.
func (ep *Endpoint) Post(target event.Addr, delay int64, fn func()) {
	ep.effects = append(ep.effects, effect{kind: effPost, base: ep.now, to: target, delay: delay, fn: fn})
}

// snapshot copies data into a recycled member-local buffer; the buffer
// returns to the endpoint's spare list after the commit phase consumed
// it.
func (ep *Endpoint) snapshot(data []byte) []byte {
	var buf []byte
	if n := len(ep.spare); n > 0 {
		buf = ep.spare[n-1]
		ep.spare = ep.spare[:n-1]
	}
	return append(buf[:0], data...)
}

// drain runs the member over its mailbox, in delivery order, then runs
// the drain-flush hook so wires batched across the phase are emitted at
// the barrier (with base = the last handled event's time).
func (ep *Endpoint) drain() {
	ep.draining = true
	box := ep.mailbox
	for i := range box {
		m := &box[i]
		ep.now = m.t
		if m.fn != nil {
			m.fn()
		} else if ep.recv != nil && !ep.detached {
			ep.recv(m.pkt)
		}
		*m = mail{}
	}
	ep.mailbox = ep.mailbox[:0]
	if ep.flush != nil {
		ep.flush()
	}
	ep.draining = false
}

// AtVirtual schedules fn on the scheduler goroutine at virtual time t.
// Global events run at the round cut nearest after t, between the
// commit barrier and the route phase. It is for instrumentation only —
// snapshotting Net stats at a fixed virtual time, say — and fn must
// not touch member state or the RNGs, or the Run/RunConcurrent
// determinism guarantee is forfeit.
func (c *Cluster) AtVirtual(t int64, fn func()) { c.sim.at(t, fn) }

// Enqueue schedules fn to run on member idx's goroutine at now+delay —
// the way a test or benchmark injects application work (casts, sends)
// into a member. Call it from the driving goroutine between runs, or
// from a previously enqueued fn on the same member (never from another
// member's callback: the effect log it appends to is owned by the
// member being drained). Enqueues before the shard partition froze are
// buffered so SetShards can still be called after workload setup.
func (c *Cluster) Enqueue(idx int, delay int64, fn func()) {
	ep := c.eps[idx]
	if c.running {
		ep.effects = append(ep.effects, effect{kind: effAfter, base: ep.now, delay: delay, fn: fn})
		return
	}
	ev := shardEvent{t: c.sim.now + delay, idx: int32(idx), kind: sevMail, fn: fn}
	if !c.frozen {
		c.pending = append(c.pending, ev)
		return
	}
	ep.shard.push(ev)
}

// nextEventTime reports the earliest pending time across every shard
// heap and the global instrumentation heap.
func (c *Cluster) nextEventTime() (int64, bool) {
	var tmin int64
	ok := false
	for _, s := range c.shards {
		if t, has := s.nextTime(); has && (!ok || t < tmin) {
			tmin, ok = t, true
		}
	}
	if len(c.sim.pq) > 0 {
		if t := c.sim.pq[0].t; !ok || t < tmin {
			tmin, ok = t, true
		}
	}
	return tmin, ok
}

// Run drives the cluster sequentially until the heaps drain or virtual
// time passes deadline; it returns the number of events executed. The
// trace is identical to RunConcurrent's for the same seed and shard
// count.
func (c *Cluster) Run(deadline int64) int { return c.run(deadline, 1) }

// RunConcurrent is Run with the scheduler phases (shard commits, shard
// routing, member drains) executed by a pool of `workers` goroutines;
// workers <= 1 falls back to sequential execution on the scheduler
// goroutine. The delivery schedule — and the trace — is byte-identical
// to Run's.
func (c *Cluster) RunConcurrent(deadline int64, workers int) int {
	return c.run(deadline, workers)
}

func (c *Cluster) run(deadline int64, workers int) int {
	if c.running {
		panic("netsim: Cluster run re-entered")
	}
	c.running = true
	defer func() { c.running = false }()
	c.freeze()

	var rp *pool
	if workers > 1 && len(c.eps) > 1 {
		rp = newPool(workers)
		defer rp.stop()
	}

	n := 0
	shards := c.shards
	ready := make([]int32, 0, len(c.eps))
	for {
		// Commit effects pending from setup or the previous drain phase,
		// then ingest cross-shard deliveries and apply detaches at the
		// barrier.
		c.runJob(rp, len(shards), func(i int) { shards[i].commitPhase() })
		if len(shards) > 1 {
			c.runJob(rp, len(shards), func(i int) { shards[i].ingestFrom(shards) })
		}
		for _, s := range shards {
			for _, ep := range s.detachQ {
				c.net.Detach(ep.addr)
			}
			s.detachQ = s.detachQ[:0]
		}
		tmin, ok := c.nextEventTime()
		if !ok || tmin > deadline {
			break
		}
		// Route one batch: the earliest pending time plus the quantum
		// window. Global instrumentation events run first, at the cut.
		batchEnd := tmin + c.quantum
		if batchEnd > deadline {
			batchEnd = deadline
		}
		for len(c.sim.pq) > 0 && c.sim.pq[0].t <= batchEnd {
			ev := c.sim.pq.pop()
			if ev.t > c.sim.now {
				c.sim.now = ev.t
			}
			ev.fn()
			n++
		}
		c.runJob(rp, len(shards), func(i int) { shards[i].routePhase(batchEnd) })
		for _, s := range shards {
			n += int(s.routed)
		}
		if c.sim.now < batchEnd {
			c.sim.now = batchEnd
		}
		// Drain: the only phase where member code runs. Only members
		// with pending mail participate (an empty mailbox means nothing
		// batched either; see SetDrainFlush).
		ready = ready[:0]
		for _, ep := range c.eps {
			if len(ep.mailbox) > 0 {
				ready = append(ready, int32(ep.idx))
			}
		}
		c.runJob(rp, len(ready), func(i int) { c.eps[ready[i]].drain() })
		// Adaptive quantum: scale the window from this round's per-shard
		// routed densities. The counts are a pure function of the
		// (deterministic) schedule, so the trajectory is identical in
		// Run and RunConcurrent for the same seed.
		if c.qMax > 0 {
			c.adaptQuantum()
		}
	}
	if c.sim.now < deadline {
		c.sim.now = deadline
	}
	for _, s := range shards {
		if s.now < deadline {
			s.now = deadline
		}
	}
	// Between runs every member's clock reads the cluster's, so what the
	// driving goroutine submits directly is stamped with the current time.
	for _, ep := range c.eps {
		if ep.now < deadline {
			ep.now = deadline
		}
	}
	return n
}
