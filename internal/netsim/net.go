package netsim

import (
	"fmt"
	"math/rand"

	"ensemble/internal/event"
	"ensemble/internal/obs"
	"ensemble/internal/transport"
)

// Packet is what the network delivers to an endpoint.
type Packet struct {
	From event.Addr
	To   event.Addr
	Data []byte
	Cast bool
}

// Profile parameterizes a simulated network's behaviour. The zero value
// is a perfect zero-latency network; the constructors below give the
// paper's link models and a faulty network for reliability tests.
type Profile struct {
	// Latency is the one-way link latency in nanoseconds.
	Latency int64
	// Jitter adds a uniform random delay in [0, Jitter) per packet;
	// nonzero jitter reorders packets.
	Jitter int64
	// LossProb drops each packet independently with this probability.
	LossProb float64
	// DupProb delivers each (non-dropped) packet twice with this
	// probability.
	DupProb float64
}

// Ethernet100 models the paper's 100 Mbit Ethernet: about 80 µs one-way
// (§4.2: "the network latency, which is about 80 µs in this case").
func Ethernet100() Profile { return Profile{Latency: 80_000} }

// VIA models the Giganet VIA interface with 10 µs link latency (§4.2).
func VIA() Profile { return Profile{Latency: 10_000} }

// Lossy is a faulty network for exercising the reliability layers: it
// loses, reorders, and duplicates (the LossyNetwork of Fig. 2(b)).
func Lossy(lossProb float64) Profile {
	return Profile{Latency: 50_000, Jitter: 100_000, LossProb: lossProb, DupProb: lossProb / 2}
}

// Stats counts what the network did, for tests and reports. Once the
// simulator has drained, every transmission is accounted for:
//
//	Sent + Duplicated == Delivered + Dropped
//
// (each Send or per-receiver Cast attempt either delivers or drops, and
// each duplicate adds one more delivery-or-drop outcome). The invariant
// is counted at the transmission level: a batched frame is one Sent and
// one Delivered however many sub-packets it carries. Frames and
// SubPackets are informational — SubPackets/Frames is the observed
// coalescing efficiency (1.0 means batching bought nothing).
type Stats struct {
	Sent, Delivered, Dropped, Duplicated int64
	BytesSent                            int64
	// BytesOnWire counts bytes handed to the medium once per
	// transmission: a multicast frame counts its bytes once however many
	// receivers it fans out to (BytesSent counts per receiver). This is
	// the figure header compression shrinks — bytes/msg in the bench
	// tables is BytesOnWire over application messages.
	BytesOnWire int64
	// Frames counts delivered transmissions that were batched frames;
	// SubPackets counts the wires fanned out of them.
	Frames, SubPackets int64
	// GenMisses counts frames that could not be decoded without mirror
	// state the receiver lacked (each answered with one resync);
	// StaleGenFrames counts pre-bump stragglers surfaced whole as
	// garbage; Resyncs counts resync answers the receive link produced.
	GenMisses, StaleGenFrames, Resyncs int64
}

// netCounters is the live, atomically-updated form of Stats. The
// simulator/scheduler goroutine is the only writer, but benches and
// instrumentation goroutines snapshot mid-run, so every counter is an
// atomic and Snapshot reads outcomes before attempts (see Snapshot).
// The frame-level counters live in the receive link (walker.Counters).
type netCounters struct {
	sent, delivered, dropped, duplicated obs.Counter
	bytesSent, bytesOnWire               obs.Counter
}

// Net is a simulated network attached to a Sim. It implements both
// point-to-point send and group multicast (multicast fans out to every
// attached endpoint except the sender, as Ethernet multicast would).
type Net struct {
	sim     *Sim
	profile Profile
	eps     map[event.Addr]func(Packet)
	order   []event.Addr
	stats   netCounters

	// filter, when set, decides reachability per (from, to) pair —
	// returning false drops the packet. Used to create partitions.
	filter func(from, to event.Addr) bool

	// route, when set, takes over delivery scheduling: the Cluster
	// installs it to route packets through per-member mailboxes instead
	// of direct callbacks (see cluster.go). delay is relative to the
	// transmission time.
	route func(p Packet, delay int64)

	// walker is the receive link every delivery passes through. Stable
	// mode: surfaced subs live as long as the frame buffer — a
	// per-transmit copy here — so receivers may retain decoded payload
	// slices, as the member Handlers contract allows. Direct deliveries
	// run on the simulator goroutine; a Cluster's shards each receive
	// through a Fork of it, so the counters stay one network's.
	walker *transport.FrameWalker
}

// SetFilter installs (or clears, with nil) a reachability filter; use it
// to partition the network and heal it again.
func (n *Net) SetFilter(f func(from, to event.Addr) bool) { n.filter = f }

// Partition splits the attached endpoints into reachability islands:
// packets only flow between addresses in the same island. An endpoint
// not listed in any island is isolated — it can reach no one, not even
// other unlisted endpoints. (Before this was pinned down, every
// unlisted endpoint mapped to the same implicit island 0 and they could
// all reach each other, which silently turned "partition these three
// off" into "put these three in a room together".) Healing is
// SetFilter(nil).
func (n *Net) Partition(islands ...[]event.Addr) {
	island := map[event.Addr]int{}
	for i, is := range islands {
		for _, a := range is {
			island[a] = i + 1
		}
	}
	n.SetFilter(func(from, to event.Addr) bool {
		fi, fok := island[from]
		ti, tok := island[to]
		return fok && tok && fi == ti
	})
}

// NewNet attaches a network with the given behaviour profile to sim.
func NewNet(sim *Sim, profile Profile) *Net {
	return &Net{
		sim:     sim,
		profile: profile,
		eps:     map[event.Addr]func(Packet){},
		walker:  transport.NewFrameWalker(transport.EpochPrefixUvarints, true),
	}
}

// Stats returns a snapshot of the traffic counters (alias of Snapshot,
// kept for existing call sites).
func (n *Net) Stats() Stats { return n.Snapshot() }

// Snapshot reads the traffic counters. It is safe to call from any
// goroutine while a run is in progress. The counters are read outcomes
// first (Delivered, Dropped) and attempts second (Sent, Duplicated): a
// delivery's Sent increment happens before its Delivered increment on
// the writer, so any outcome this order observes has its attempt
// counted too, and the mid-run invariant
//
//	Delivered + Dropped <= Sent + Duplicated
//
// holds for every snapshot; equality is reached once the simulator
// drains (see Stats).
func (n *Net) Snapshot() Stats {
	var s Stats
	link := n.walker.Counters()
	s.Delivered = n.stats.delivered.Load()
	s.Dropped = n.stats.dropped.Load()
	s.Frames = link.Frames.Load()
	s.SubPackets = link.SubPackets.Load()
	s.Sent = n.stats.sent.Load()
	s.Duplicated = n.stats.duplicated.Load()
	s.BytesSent = n.stats.bytesSent.Load()
	s.BytesOnWire = n.stats.bytesOnWire.Load()
	s.GenMisses = link.GenMisses.Load()
	s.StaleGenFrames = link.StaleGenFrames.Load()
	s.Resyncs = link.Resyncs.Load()
	return s
}

// RegisterMetrics adopts the network's counters into reg under the
// "netsim/" prefix.
func (n *Net) RegisterMetrics(reg *obs.Registry) {
	sc := reg.Scope("netsim/")
	sc.Adopt("sent", &n.stats.sent)
	sc.Adopt("delivered", &n.stats.delivered)
	sc.Adopt("dropped", &n.stats.dropped)
	sc.Adopt("duplicated", &n.stats.duplicated)
	sc.Adopt("bytes_sent", &n.stats.bytesSent)
	sc.Adopt("bytes_on_wire", &n.stats.bytesOnWire)
	link := n.walker.Counters()
	sc.Adopt("frames", &link.Frames)
	sc.Adopt("sub_packets", &link.SubPackets)
	sc.Adopt("gen_misses", &link.GenMisses)
	sc.Adopt("stale_gen_frames", &link.StaleGenFrames)
	sc.Adopt("resyncs", &link.Resyncs)
}

// Attach registers an endpoint. The recv callback runs on the simulator
// goroutine at the packet's delivery time.
func (n *Net) Attach(addr event.Addr, recv func(Packet)) {
	if _, dup := n.eps[addr]; dup {
		panic(fmt.Sprintf("netsim: duplicate endpoint %d", addr))
	}
	n.eps[addr] = recv
	n.order = append(n.order, addr)
}

// Detach removes an endpoint; in-flight packets to it are dropped at
// delivery time.
func (n *Net) Detach(addr event.Addr) {
	delete(n.eps, addr)
	for i, a := range n.order {
		if a == addr {
			n.order = append(n.order[:i], n.order[i+1:]...)
			break
		}
	}
}

// Send transmits a point-to-point packet. The data is copied: the caller
// may reuse its buffer.
func (n *Net) Send(from, to event.Addr, data []byte) {
	n.sendVia(n.sim.rng, nil, from, to, data)
}

// Cast transmits a multicast packet to every attached endpoint except
// the sender. Loss is independent per receiver. Every receiver gets its
// own copy of data: transports decode in place, so a shared backing
// slice would let one member's decode corrupt another's packet.
func (n *Net) Cast(from event.Addr, data []byte) {
	n.castVia(n.sim.rng, nil, from, data)
}

// sendVia is Send parameterized by the random source and delivery sink:
// the sharded cluster commit calls it with the emitting shard's RNG so
// shards can commit in parallel without racing on one generator, and
// with the shard as sink so deliveries land on shard heaps instead of
// the global one. sink == nil delivers through the plain simulator
// path. The draw order (filter, loss, delay, dup, dup delay — per
// receiver, in attach order) is fixed: it is part of the deterministic
// schedule.
func (n *Net) sendVia(rng *rand.Rand, sink *shard, from, to event.Addr, data []byte) {
	n.stats.sent.Inc()
	n.stats.bytesSent.Add(int64(len(data)))
	n.stats.bytesOnWire.Add(int64(len(data)))
	n.transmitVia(rng, sink, Packet{From: from, To: to, Data: append([]byte(nil), data...)})
}

// castVia is Cast parameterized like sendVia.
func (n *Net) castVia(rng *rand.Rand, sink *shard, from event.Addr, data []byte) {
	n.stats.bytesOnWire.Add(int64(len(data)))
	for _, to := range n.order {
		if to == from {
			continue
		}
		n.stats.sent.Inc()
		n.stats.bytesSent.Add(int64(len(data)))
		n.transmitVia(rng, sink, Packet{From: from, To: to, Data: append([]byte(nil), data...), Cast: true})
	}
}

func (n *Net) transmitVia(rng *rand.Rand, sink *shard, p Packet) {
	if n.filter != nil && !n.filter(p.From, p.To) {
		n.stats.dropped.Inc()
		return
	}
	if n.profile.LossProb > 0 && rng.Float64() < n.profile.LossProb {
		n.stats.dropped.Inc()
		return
	}
	n.deliverVia(sink, p, n.delayVia(rng))
	if n.profile.DupProb > 0 && rng.Float64() < n.profile.DupProb {
		n.stats.duplicated.Inc()
		// The duplicate needs its own buffer too: both copies reach the
		// same endpoint, and an in-place decode of the first must not
		// mangle the second.
		q := p
		q.Data = append([]byte(nil), p.Data...)
		n.deliverVia(sink, q, n.delayVia(rng))
	}
}

func (n *Net) delayVia(rng *rand.Rand) int64 {
	d := n.profile.Latency
	if n.profile.Jitter > 0 {
		d += rng.Int63n(n.profile.Jitter)
	}
	return d
}

func (n *Net) deliverVia(sink *shard, p Packet, delay int64) {
	if sink != nil {
		sink.deliver(p, delay)
		return
	}
	n.deliverAfter(p, delay)
}

func (n *Net) deliverAfter(p Packet, delay int64) {
	if n.route != nil {
		n.route(p, delay)
		return
	}
	n.sim.After(delay, func() { n.deliverNow(p) })
}

// deliverNow hands p to its endpoint at delivery time. A packet whose
// endpoint detached while it was in flight counts as dropped — without
// that, such packets vanish from the books and the Sent/Delivered/
// Dropped invariant (see stats) silently breaks. A batched frame is one
// delivery on the books but fans out into one recv call per sub-packet,
// in order — the receiving member cannot tell batched wires from raw
// ones (malformed sub-packets surface as garbage and land in the
// member's stray-packet accounting, like any malformed raw packet). A
// resync answer is an ordinary raw send from the receiving endpoint back
// to the frame's sender, so the invariant and the deterministic schedule
// both see it as a normal transmission.
func (n *Net) deliverNow(p Packet) {
	recv, ok := n.eps[p.To]
	if !ok {
		n.stats.dropped.Inc()
		return
	}
	n.stats.delivered.Inc()
	resync, _ := n.walker.WalkLink(p.From, p.To, p.Data, func(sub []byte) {
		q := p
		q.Data = sub
		recv(q)
	})
	if resync != nil {
		n.Send(p.To, p.From, resync)
	}
}
