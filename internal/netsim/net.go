package netsim

import (
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/obs"
	"ensemble/internal/transport"
)

// Packet is what the network delivers to an endpoint. A delivered Data
// is read-only and shared: every receiver of a multicast, and every
// duplicate, gets the same buffer, and sub-packets of a frame alias it.
// A receiver may keep it for as long as it likes and must never write
// into it.
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

// netCounters is the live, atomically-updated form of Stats. The shards
// write it (from their own goroutines in RunConcurrent) and benches and
// instrumentation goroutines read it mid-run, so every counter is an
// atomic and Stats reads outcomes before attempts (see Stats). The
// frame-level counters live in the receive link (walker.Counters).
type netCounters struct {
	sent, delivered, dropped, duplicated obs.Counter
	bytesSent, bytesOnWire               obs.Counter
}

// Net is the medium of a Cluster: the tables every shard shares — who
// is attached (multicast fans out to every attached endpoint except the
// sender, in attach order, as Ethernet multicast would), the
// reachability filter, the traffic counters and the receive link. It
// schedules nothing: transmission and delivery are the shards' (see
// shard.go). Partition, SetFilter and Detach are for the driving
// goroutine between runs.
type Net struct {
	profile Profile
	eps     map[event.Addr]bool
	order   []event.Addr
	stats   netCounters

	// filter, when set, decides reachability per (from, to) pair —
	// returning false drops the packet. Used to create partitions.
	filter func(from, to event.Addr) bool

	// walker is the receive link every delivery passes through; each
	// shard receives through a Fork of it, so the counters stay one
	// network's. Stable mode: surfaced subs live as long as the frame
	// buffer — one read-only copy per transmission, shared by all its
	// receivers and duplicates — so receivers may retain decoded payload
	// slices, and must not modify them, as the member Handlers contract
	// says.
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

// Stats reads the traffic counters. It is safe to call from any
// goroutine while a run is in progress. The counters are read outcomes
// first (Delivered, Dropped) and attempts second (Sent, Duplicated): a
// delivery's Sent increment happens before its Delivered increment on
// the writer, so any outcome this order observes has its attempt
// counted too, and the mid-run invariant
//
//	Delivered + Dropped <= Sent + Duplicated
//
// holds for every snapshot; equality is reached once the simulator
// drains (see the Stats type).
func (n *Net) Stats() Stats {
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

// attach enters addr in the cast fan-out (Endpoint.Attach).
func (n *Net) attach(addr event.Addr) {
	if n.eps[addr] {
		panic(fmt.Sprintf("netsim: duplicate endpoint %d", addr))
	}
	n.eps[addr] = true
	n.order = append(n.order, addr)
}

// Detach removes an endpoint — a crash, as the network sees it;
// in-flight packets to it are dropped at delivery time.
func (n *Net) Detach(addr event.Addr) {
	delete(n.eps, addr)
	for i, a := range n.order {
		if a == addr {
			n.order = append(n.order[:i], n.order[i+1:]...)
			break
		}
	}
}
