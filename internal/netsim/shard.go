package netsim

// The sharded scheduler core. A Cluster partitions its endpoints into
// shards; each shard owns an event heap, an insertion-sequence counter,
// a monotone time floor, a seeded RNG, a frame walker, and a trace
// buffer. The three phases of a round (commit, route, drain) run the
// shards in parallel over a small worker pool; the only global
// rendezvous is the barrier between phases, where cross-shard transfer
// queues are ingested in canonical (target, source, append) order.
// Because every shard-local decision (heap order, RNG draws, trace
// bytes) depends only on shard-local deterministic state, and the
// barrier ingest order is fixed, the schedule is a pure function of the
// seed and the shard count — Run and RunConcurrent stay byte-identical.

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"

	"ensemble/internal/event"
	"ensemble/internal/transport"
)

// resyncReq is one queued resync answer the receive link produced.
// routePhase cannot emit traffic (shards route in parallel and sends
// draw from the RNG at commit time), so arrive records the request and
// the next commitPhase sends it — before replaying member effects, at
// the queued arrival time — keeping resync emission a deterministic
// function of the schedule.
type resyncReq struct {
	t    int64
	from event.Addr // the victim receiver, which emits the resync
	to   event.Addr // the sender whose delta chain must restart
	data []byte     // the encoded resync packet
}

// shardEvent is one scheduled occurrence inside a shard: a packet
// arrival (kind sevArrive) or a deferred function destined for a
// member's mailbox (kind sevMail — timers, Enqueue work, Post
// handoffs). seq is assigned by the owning shard at push time; events
// crossing shards travel seq-less in an outbox and get their target
// sequence at barrier ingest. Sim's instrumentation callbacks are
// shardEvents too, with only t, seq and fn set.
type shardEvent struct {
	t    int64
	seq  int64
	idx  int32 // destination endpoint index; -1 = drop accounting only
	kind uint8
	pkt  Packet
	fn   func()
}

const (
	sevArrive uint8 = iota
	sevMail
)

// eventHeap is a binary min-heap of scheduled events ordered by
// (t, seq): the shards' arrival and mail heaps and Sim's instrumentation
// heap. seq is unique within a heap, so the order is total and pop order
// does not depend on how the heap is laid out. Events are moved, never
// boxed — push and pop allocate nothing once the backing array has grown
// to the heap's high-water mark — and pop clears the slot it vacates, so
// a popped event's packet and callback are not kept reachable from the
// backing array.
type eventHeap []shardEvent

func (e *shardEvent) before(o *shardEvent) bool {
	return e.t < o.t || (e.t == o.t && e.seq < o.seq)
}

func (h *eventHeap) push(ev shardEvent) {
	q := append(*h, shardEvent{})
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the earliest event; the heap must not be empty.
func (h *eventHeap) pop() shardEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = shardEvent{}
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q[c+1].before(&q[c]) {
				c++
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// shard owns a contiguous block of the cluster's endpoints and all
// scheduler state needed to route and commit their traffic without
// touching another shard's.
type shard struct {
	c   *Cluster
	id  int
	eps []*Endpoint

	pq  eventHeap
	seq int64
	// now is the shard's monotone time floor: the time of the last event
	// this shard popped. Pushes clamp past times to it, exactly as the
	// unsharded scheduler clamped against the global clock, so per-shard
	// virtual time never runs backwards.
	now int64

	rng    *rand.Rand
	walker *transport.FrameWalker
	trace  []byte

	// commitBase is the virtual time of the effect currently being
	// committed (the emitting member's handling time); deliveries are
	// scheduled relative to it.
	commitBase int64

	// outbox[k] accumulates events this shard's commit produced for
	// shard k. Each (source, target) cell is written only by the source
	// during commit and drained only by the target during barrier
	// ingest, so no lock is needed.
	outbox [][]shardEvent

	// resyncQ accumulates generation-miss resync requests observed
	// during routePhase, drained at the top of the next commitPhase.
	resyncQ []resyncReq

	// detachQ defers Net-level detach (map and cast-order mutation) to
	// the barrier: commits run in parallel, and the shared Net tables
	// may only be touched by the scheduler between phases.
	detachQ []*Endpoint

	// routed is the event count of the last route phase; the adaptive
	// quantum controller reads per-shard routed density.
	routed int64
}

func newShard(c *Cluster, id int, nshards int) *shard {
	return &shard{
		c:      c,
		id:     id,
		rng:    rand.New(rand.NewSource(c.seed ^ int64(0x9E3779B97F4A7C15*uint64(id+1)))),
		walker: c.net.walker.Fork(),
		outbox: make([][]shardEvent, nshards),
	}
}

// push assigns a sequence number and schedules ev on this shard's heap,
// clamping past times to the shard's floor.
func (s *shard) push(ev shardEvent) {
	if ev.t < s.now {
		ev.t = s.now
	}
	s.seq++
	ev.seq = s.seq
	s.pq.push(ev)
}

// send transmits one point-to-point packet from a member of this shard.
// The data (the sender's recycled snapshot) is copied once. The draw
// order (filter, loss, delay, dup, dup delay — per receiver, in attach
// order) is fixed: it is part of the deterministic schedule, and every
// draw comes from the emitting shard's RNG so shards can commit in
// parallel.
func (s *shard) send(from, to event.Addr, data []byte) {
	st := &s.c.net.stats
	st.sent.Inc()
	st.bytesSent.Add(int64(len(data)))
	st.bytesOnWire.Add(int64(len(data)))
	s.transmit(Packet{From: from, To: to, Data: append([]byte(nil), data...)})
}

// cast transmits a multicast to every attached endpoint except the
// sender. Loss is independent per receiver. The data (the sender's
// recycled snapshot) is copied once, before the fan-out: every receiver,
// on any shard, and every duplicate gets that one buffer, read-only —
// nothing below or above the network writes into an arrival.
func (s *shard) cast(from event.Addr, data []byte) {
	st := &s.c.net.stats
	st.bytesOnWire.Add(int64(len(data)))
	buf := append([]byte(nil), data...)
	for _, to := range s.c.net.order {
		if to == from {
			continue
		}
		st.sent.Inc()
		st.bytesSent.Add(int64(len(data)))
		s.transmit(Packet{From: from, To: to, Data: buf, Cast: true})
	}
}

func (s *shard) transmit(p Packet) {
	n := s.c.net
	if n.filter != nil && !n.filter(p.From, p.To) {
		n.stats.dropped.Inc()
		return
	}
	if n.profile.LossProb > 0 && s.rng.Float64() < n.profile.LossProb {
		n.stats.dropped.Inc()
		return
	}
	s.deliver(p, s.delay())
	if n.profile.DupProb > 0 && s.rng.Float64() < n.profile.DupProb {
		n.stats.duplicated.Inc()
		s.deliver(p, s.delay()) // the same read-only buffer
	}
}

func (s *shard) delay() int64 {
	d := s.c.net.profile.Latency
	if j := s.c.net.profile.Jitter; j > 0 {
		d += s.rng.Int63n(j)
	}
	return d
}

// deliver schedules p's arrival delay after the effect being committed:
// on this shard's own heap or in the outbox cell of the destination's
// shard.
func (s *shard) deliver(p Packet, delay int64) {
	idx, ok := s.c.byAddr[p.To]
	if !ok {
		// Destination was never a cluster endpoint: account the drop
		// (there is no trace line for it).
		s.c.net.stats.dropped.Inc()
		return
	}
	s.post(shardEvent{t: s.commitBase + delay, idx: int32(idx), kind: sevArrive, pkt: p})
}

// post routes ev to the shard owning its destination endpoint: own heap
// directly, or the cross-shard outbox.
func (s *shard) post(ev shardEvent) {
	target := s.c.eps[ev.idx].shard
	if target == s {
		s.push(ev)
		return
	}
	s.outbox[target.id] = append(s.outbox[target.id], ev)
}

// ingestFrom pulls the events every source shard produced for this
// shard during the commit phase, in (source, append) order — both
// deterministic — and schedules them behind everything already pushed.
func (s *shard) ingestFrom(shards []*shard) {
	for _, src := range shards {
		box := src.outbox[s.id]
		for i := range box {
			s.push(box[i])
			box[i] = shardEvent{}
		}
		src.outbox[s.id] = box[:0]
	}
}

// routePhase pops every event in the batch window, in (time, sequence)
// order, delivering arrivals and mailbox work to this shard's members.
func (s *shard) routePhase(batchEnd int64) {
	routed := int64(0)
	for len(s.pq) > 0 && s.pq[0].t <= batchEnd {
		ev := s.pq.pop()
		s.now = ev.t
		if ev.idx < 0 {
			routed++
			continue
		}
		ep := s.c.eps[ev.idx]
		switch ev.kind {
		case sevArrive:
			s.arrive(ep, ev.t, ev.pkt)
		case sevMail:
			ep.mailbox = append(ep.mailbox, mail{t: ev.t, fn: ev.fn})
		}
		routed++
	}
	s.routed = routed
}

// arrive delivers one transmission to ep at time t. A packet whose
// endpoint detached while it was in flight counts as dropped — without
// that it would vanish from the books and break the Stats invariant.
// Delivery (and the trace line, and the books) is per transmission: a
// batched frame is one 'd' however many wires it carries; the fan-out
// into one mail per sub-packet happens here, so the member's recv
// cannot tell batched wires from raw ones (malformed sub-packets
// surface as garbage and land in the member's stray-packet accounting,
// like any malformed raw packet).
func (s *shard) arrive(ep *Endpoint, t int64, p Packet) {
	if !s.c.net.eps[p.To] || ep.detached || ep.recv == nil {
		s.c.net.stats.dropped.Inc()
		s.traceLine('x', t, p)
		return
	}
	s.c.net.stats.delivered.Inc()
	s.traceLine('d', t, p)
	// The link runs in stable mode, so reconstructed subs (like full
	// ones, which alias the transmission's shared read-only buffer) stay
	// valid from this mailbox append through the member's drain-phase
	// consumption and beyond. Per-link mirror state is consistent because
	// deliveries to an endpoint always run on its owning shard.
	resync, _ := s.walker.WalkLink(p.From, p.To, p.Data, func(sub []byte) {
		q := p
		q.Data = sub
		ep.mailbox = append(ep.mailbox, mail{t: t, pkt: q})
	})
	if resync != nil {
		s.resyncQ = append(s.resyncQ, resyncReq{t: t, from: p.To, to: p.From, data: resync})
	}
}

// commitPhase replays the effect logs of this shard's members in
// canonical member order. This is the only place member-produced work
// touches the RNG and heaps — and each shard touches only its own,
// which is what lets commits run in parallel.
func (s *shard) commitPhase() {
	// Answer the generation misses the last route phase observed before
	// replaying member effects: the resync packet leaves the victim at
	// its arrival time, through the ordinary send path (RNG draw, loss,
	// delay), so Run and RunConcurrent emit identical resync traffic.
	if len(s.resyncQ) > 0 {
		rq := s.resyncQ
		s.resyncQ = s.resyncQ[:0]
		for i := range rq {
			r := &rq[i]
			s.commitBase = r.t
			s.send(r.from, r.to, r.data)
			rq[i] = resyncReq{}
		}
	}
	for _, ep := range s.eps {
		effs := ep.effects
		ep.effects = ep.effects[:0]
		for i := range effs {
			e := &effs[i]
			s.commitBase = e.base
			switch e.kind {
			case effSend:
				if s.c.tracing {
					s.trace = fmt.Appendf(s.trace, "s t=%d %d->%d n=%d crc=%08x\n",
						e.base, ep.addr, e.to, len(e.data), crc32.ChecksumIEEE(e.data))
				}
				s.send(ep.addr, e.to, e.data)
			case effCast:
				if s.c.tracing {
					s.trace = fmt.Appendf(s.trace, "s t=%d %d->* n=%d crc=%08x\n",
						e.base, ep.addr, len(e.data), crc32.ChecksumIEEE(e.data))
				}
				s.cast(ep.addr, e.data)
			case effAfter:
				s.push(shardEvent{t: e.base + e.delay, idx: int32(ep.idx), kind: sevMail, fn: e.fn})
			case effPost:
				if tidx, ok := s.c.byAddr[e.to]; ok {
					s.post(shardEvent{t: e.base + e.delay, idx: int32(tidx), kind: sevMail, fn: e.fn})
				}
			case effDetach:
				ep.detached = true
				s.detachQ = append(s.detachQ, ep)
			}
			if e.data != nil {
				ep.spare = append(ep.spare, e.data)
			}
			*e = effect{}
		}
	}
}

func (s *shard) traceLine(tag byte, t int64, p Packet) {
	if !s.c.tracing {
		return
	}
	s.trace = fmt.Appendf(s.trace, "%c t=%d %d<-%d cast=%t n=%d crc=%08x\n",
		tag, t, p.To, p.From, p.Cast, len(p.Data), crc32.ChecksumIEEE(p.Data))
}

// nextTime reports the earliest pending event time on this shard.
func (s *shard) nextTime() (int64, bool) {
	if len(s.pq) == 0 {
		return 0, false
	}
	return s.pq[0].t, true
}

// ---- worker pool ----

// pool is a fixed set of worker goroutines shared by all parallel
// phases of one concurrent run. Work is claim-based: a phase publishes
// a job of n independent items and every worker steals indices off an
// atomic cursor until the job drains, so an expensive shard (or member
// drain) never leaves the other workers idle behind a static split.
type pool struct {
	chans []chan *job
}

type job struct {
	n      int32
	cursor atomic.Int32
	f      func(int)
	wg     sync.WaitGroup
}

func newPool(workers int) *pool {
	p := &pool{chans: make([]chan *job, workers)}
	for i := range p.chans {
		ch := make(chan *job, 1)
		p.chans[i] = ch
		go func() {
			for j := range ch {
				for {
					i := j.cursor.Add(1) - 1
					if i >= j.n {
						break
					}
					j.f(int(i))
				}
				j.wg.Done()
			}
		}()
	}
	return p
}

// run executes f(0..n-1) across the pool and waits for the barrier. The
// channel send / WaitGroup pair is the happens-before edge that hands
// shard and mailbox ownership across goroutines between phases.
func (p *pool) run(n int, f func(int)) {
	if n == 0 {
		return
	}
	j := &job{n: int32(n), f: f}
	j.wg.Add(len(p.chans))
	for _, ch := range p.chans {
		ch <- j
	}
	j.wg.Wait()
}

func (p *pool) stop() {
	for _, ch := range p.chans {
		close(ch)
	}
}

// runJob runs one phase: inline (deterministic order, zero overhead)
// when sequential or trivially small, stolen across the pool otherwise.
func (c *Cluster) runJob(rp *pool, n int, f func(int)) {
	if rp == nil || n <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	rp.run(n, f)
}
