package transport

// The wire format, send side. The paper's bypass engine already defers
// non-critical work inside one member's path (§4, item 3); the Batcher
// extends the idea across the member/transport boundary: instead of
// handing each outgoing wire image to the network one syscall-shaped
// call at a time, wires headed to the same destination are appended
// into a coalesced *frame* and the network sees a single transmit per
// destination per flush window. There is one frame format:
//
//	magic    byte = FrameMagic (0xB9)
//	flags    byte (0x01 = cast chain; other bits reserved, must be 0)
//	gen      uvarint — the sender's generation for this chain
//	frameSeq uvarint — 1-based frame counter within the generation
//	subs     the sub grammar of delta.go: each sub rides full, field-
//	         delta-encoded, or as a shared prefix/suffix/run of its
//	         predecessor
//
// A *chain* is the sequence of frames to one destination (the cast
// chain is shared by all receivers). The sender keeps a per-chain shadow
// of the last sub it emitted, so the first sub of a frame may encode
// against the previous frame's last sub; the receiver (xframe.go) keeps
// the mirror per (from, to, cast) link and applies that cross-frame base
// only when the header proves continuity: same generation, exactly the
// next frame sequence. Safety over loss and reordering is therefore by
// construction (the communication-closure discipline of "Causing
// Communication Closure", PAPERS.md) — see FrameWalker for the receive
// rules and the resync packet that restarts a broken chain.
//
// Batching must coalesce, never reorder. The Batcher guarantees
// something stronger than per-peer FIFO: it only ever appends to the
// *newest* frame in its queue and flushes frames in creation order, so
// the global emission order of wires is exactly the append order. A send
// to peer A between two casts therefore closes the open cast frame — the
// second cast starts a new one — rather than being overtaken by it.
//
// Flush triggers: the size threshold (a frame that would outgrow
// maxBytes flushes everything first), the owner's end of entry, the
// scheduler's drain barrier, and explicit calls. At the entry-end and
// barrier triggers a batcher that was given a clock may *hold* a suffix
// of the queue — frames still small, young, and headed to a chain whose
// observed append cadence says more wires are imminent — so near-future
// appends coalesce into them; size-threshold and explicit flushes always
// emit everything.

import (
	"encoding/binary"

	"ensemble/internal/event"
)

// FrameMagic is the first byte of every batched frame. Members emit
// all stack traffic as frames (even a frame of one sub-packet); raw
// packets (resync requests, hand-crafted test packets) start with
// anything else and pass through the receive link whole.
const FrameMagic = 0xB9

// DefaultFrameBytes is the default size threshold: a frame is flushed
// rather than grown past roughly one MTU's worth of sub-packets.
const DefaultFrameBytes = 1400

// IsFrame reports whether data begins a batched frame. FrameWalker
// applies this test itself; substrates need it only to tell frames from
// control packets before the link sees them (UDPNet's injected loss).
func IsFrame(data []byte) bool { return len(data) > 0 && data[0] == FrameMagic }

// xflagCast marks the cast chain; point-to-point chains leave it clear.
// All other flag bits are reserved and must be zero.
const xflagCast = 0x01

// BatchSink consumes flushed frames. core.Network's transmit half
// (netsim.Endpoint, netsim.UDPNet) satisfies it.
type BatchSink interface {
	Send(from, to event.Addr, data []byte)
	Cast(from event.Addr, data []byte)
}

// FlushCause says why a flush happened — the three triggers the
// batching design names (size threshold, owner's entry end, scheduler
// drain barrier) plus explicit calls. BatcherStats counts flushes per
// cause, which is the figure that shows *where* coalescing windows
// actually close on a given workload.
type FlushCause uint8

const (
	// FlushExplicit is a direct Flush() call (tests, generation bumps,
	// deployments forcing wires out before blocking).
	FlushExplicit FlushCause = iota
	// FlushSize is the size-threshold trigger: a frame reached maxBytes.
	FlushSize
	// FlushEntryEnd is the owner's end-of-entry trigger: core.Member
	// flushes when its outermost entry point returns.
	FlushEntryEnd
	// FlushBarrier is the scheduler drain-barrier trigger: the cluster
	// (or UDP burst loop) flushes each member at the end of its drain.
	FlushBarrier
)

// BatcherStats counts batching activity, for tests and benchmarks.
// SubPackets/Frames is the coalescing efficiency (1.0 = no batching).
type BatcherStats struct {
	// SubPackets counts wires appended.
	SubPackets int64
	// Frames counts frames handed to the sink.
	Frames int64
	// Flushes counts Flush calls that emitted at least one frame.
	Flushes int64
	// SizeFlushes, EntryEndFlushes, and BarrierFlushes split Flushes by
	// cause; the remainder (Flushes minus the three) were explicit.
	SizeFlushes, EntryEndFlushes, BarrierFlushes int64
	// DeltaSubs counts wires that went out field-delta-encoded against
	// their predecessor on the chain.
	DeltaSubs int64
	// PrefixSubs counts wires that went out as shared-prefix subs — the
	// shape-agnostic fallback for wires the field delta cannot parse —
	// in any of the prefix, prefix+suffix and run forms.
	PrefixSubs int64
	// RunSubs counts the PrefixSubs that went out in the run form: a
	// changed field, then an unchanged run of the predecessor's bytes.
	RunSubs int64
	// VerbatimSubs counts frame-sized wires (at least the frame budget
	// long), which ride verbatim so receivers surface them where they
	// landed: as a prefix sub sharing nothing when they share a prefix
	// with their predecessor, full otherwise. DeltaSubs and PrefixSubs
	// count none of them.
	VerbatimSubs int64
	// FrameBytes counts frame bytes handed to the sink — the batcher's
	// own bytes-on-wire figure, for substrates that do not keep one.
	FrameBytes int64
	// ClassicBytes counts what the appended wires would have cost as
	// unbatched classic frames — one magic byte, a uvarint length, and
	// the wire, per sub. It is the fixed yardstick compression ratios are
	// quoted against (FrameBytes/ClassicBytes), computed from the run's
	// own wires so no second encoder has to exist to measure it.
	ClassicBytes int64
	// XFrames counts frames created; XFirstFull and XFirstDelta split
	// them by whether the first sub rode full or encoded against the
	// previous frame's last sub — the figure that says how often the
	// cross-frame base actually paid off.
	XFrames, XFirstFull, XFirstDelta int64
	// GenBumps counts local generation bumps (view installs, peer
	// rebinds); ResyncBumps counts bumps forced by a peer's resync packet
	// (a detected drop or a restarted receiver).
	GenBumps, ResyncBumps int64
	// Holds counts frames kept pending at a flush point that would
	// otherwise have emitted them.
	Holds int64
}

// Add accumulates o into s — for harnesses aggregating the per-member
// batching counters of a whole group.
func (s *BatcherStats) Add(o BatcherStats) {
	s.SubPackets += o.SubPackets
	s.Frames += o.Frames
	s.Flushes += o.Flushes
	s.SizeFlushes += o.SizeFlushes
	s.EntryEndFlushes += o.EntryEndFlushes
	s.BarrierFlushes += o.BarrierFlushes
	s.DeltaSubs += o.DeltaSubs
	s.PrefixSubs += o.PrefixSubs
	s.RunSubs += o.RunSubs
	s.VerbatimSubs += o.VerbatimSubs
	s.FrameBytes += o.FrameBytes
	s.ClassicBytes += o.ClassicBytes
	s.XFrames += o.XFrames
	s.XFirstFull += o.XFirstFull
	s.XFirstDelta += o.XFirstDelta
	s.GenBumps += o.GenBumps
	s.ResyncBumps += o.ResyncBumps
	s.Holds += o.Holds
}

// batchFrame is one pending coalesced frame: a cast frame fans out to
// the whole group at flush time, a peer frame goes to one destination.
type batchFrame struct {
	cast bool
	to   event.Addr
	subs int
	buf  []byte
	// base is the previous sub's parsed header — the delta base for the
	// next append. Tail-only append makes this well defined: only the
	// newest frame ever grows, so one base per frame is the whole state.
	base subMeta
	// st is the destination chain's state, cached here so flush decisions
	// skip the map; born is the frame's creation time (0 without a clock).
	st   *peerState
	born int64
}

// xKey identifies one outgoing chain: the cast chain is shared by all
// receivers (a cast frame is one buffer fanned out verbatim, so its
// delta chain must be one sequence too), point-to-point chains are per
// destination.
type xKey struct {
	cast bool
	to   event.Addr
}

func chainKey(cast bool, to event.Addr) xKey {
	if cast {
		return xKey{cast: true}
	}
	return xKey{to: to}
}

// peerState is the sender's per-chain record: the generation/frame
// counters stamped into headers, the shadow of the last sub emitted
// (the next frame's cross-frame base), and the inter-append gap
// estimate the hold decision reads.
type peerState struct {
	gen      uint64
	frameSeq uint64
	// shadow is the last wire appended to the chain's previous frame,
	// with its parsed header; hasShadow is false in a fresh generation,
	// which is exactly what forces the next first sub to ride full.
	shadow     []byte
	shadowMeta subMeta
	hasShadow  bool
	// sinceFull counts consecutive frames whose first sub rode the
	// cross-frame shadow; at xAnchorEvery the chain emits an anchor
	// (full first sub) instead, resetting the count.
	sinceFull int
	// lastAppend / gapEWMA feed the hold decision: the time of the
	// chain's last append and a smoothed inter-append gap (-1 until two
	// appends have been seen).
	lastAppend int64
	gapEWMA    int64
}

// xAnchorEvery caps consecutive delta-first frames per chain: after this
// many, the next frame is an anchor (full first sub, self-contained).
// One lost frame renders every later delta-first frame already in flight
// undecodable until the resync round trip completes; anchors bound that
// amplification to the cadence and let a broken chain heal passively —
// a receiver adopts the anchor statelessly — even when the resync itself
// is lost. The cost is one full first sub per xAnchorEvery frames, the
// same refresh/efficiency trade header-compression schemes over lossy
// links settle by periodic full headers. 16 keeps the worst-case
// undecodable run under one resync round trip on the simulated link
// while paying the refresh tax half as often as the initial cadence of
// 8 did.
const xAnchorEvery = 16

// Hold tuning: a frame may be held at most holdMaxNs past its creation,
// only for a chain whose smoothed inter-append gap is at most holdGapNs,
// and only while it is under holdMinBytes. The gap ceiling sits above
// the steady cast cadences the workloads run (200µs rounds) — a chain
// carrying back-to-back rounds is exactly the one worth holding through
// a barrier so the next round's subs ride the same frame — and the hold
// cap spans a couple of drain barriers even when the adaptive quantum
// has widened past the submission interval. The layer sweep tick (50ms)
// and the barrier cadence bound staleness even if traffic stops dead.
const (
	holdMaxNs    = 2_000_000
	holdGapNs    = 500_000
	holdMinBytes = 600
)

// Batcher coalesces outgoing wire images into per-destination frames.
// It is single-goroutine, like the member that owns it, and recycles
// its frame buffers so the steady-state hot path allocates nothing
// (the sink consumes frame data during the call, per the Network
// contract).
type Batcher struct {
	sink     BatchSink
	from     event.Addr
	maxBytes int
	// nPrefix is the epoch prefix length the sub parser expects (see
	// delta.go).
	nPrefix int
	// peers holds the per-chain generation/shadow/cadence state, keyed by
	// destination (one shared entry for the cast chain).
	peers map[xKey]*peerState
	// now is the owner's clock; nil means the batcher never holds and
	// frames carry no creation time. holdObs, when set, observes each
	// emitted frame's queue residency (emit time minus creation time, ns)
	// — the hold-duration histogram feed.
	now     func() int64
	holdObs func(int64)

	frames []batchFrame
	free   [][]byte
	// prev holds a copy of the last wire appended to the newest frame —
	// the base for shared-prefix encoding. One buffer suffices because
	// only the newest frame is ever appendable; tail() reseeds it when a
	// fresh frame starts. next is where append gathers the incoming
	// wire's segments; the two swap once it is encoded, so gathering is
	// the only copy the base costs.
	prev, next []byte
	stats      BatcherStats
}

// NewBatcher builds a batcher for the member at from, flushing frames
// into sink. maxBytes <= 0 selects DefaultFrameBytes; maxBytes == 1 is
// the no-coalescing setting (every wire flushes as its own frame during
// the call that appended it, and, being frame-sized, rides verbatim).
func NewBatcher(sink BatchSink, from event.Addr, maxBytes int) *Batcher {
	if maxBytes <= 0 {
		maxBytes = DefaultFrameBytes
	}
	return &Batcher{sink: sink, from: from, maxBytes: maxBytes}
}

// EnableCrossFrame sets the number of epoch uvarints prefixed to every
// wire (EpochPrefixUvarints for core.Member traffic, the default 0 for
// bare wires) so the sub coder can treat the prefix as one elidable
// field; receivers must walk these frames with a FrameWalker built with
// the same value. Pending frames are flushed first.
func (b *Batcher) EnableCrossFrame(prefixUvarints int) {
	if prefixUvarints < 0 || prefixUvarints > maxPrefix {
		panic("transport: prefixUvarints out of range")
	}
	b.Flush()
	b.nPrefix = prefixUvarints
}

// SetClock gives the batcher its owner's clock (virtual nanoseconds
// under netsim, monotonic under UDPNet), which is what lets entry-end
// and barrier flushes hold young frames on fast chains; nil takes it
// away again. Hold decisions read only this clock and per-chain
// counters, so simulated runs stay deterministic. Pending frames are
// flushed first.
func (b *Batcher) SetClock(now func() int64) {
	b.Flush()
	b.now = now
}

// DisableAdaptiveFlush is SetClock(nil) under the name the repository
// benchmark calls (benchmark/udp.go): a closed-loop workload's holds
// would otherwise wait out the owner's sweep tick.
func (b *Batcher) DisableAdaptiveFlush() { b.SetClock(nil) }

// SetHoldObserver installs a per-frame queue-residency observer: at
// every emit, obs receives the frame's age (emit time minus creation
// time, in the clock's nanoseconds). The member wires an obs.Histogram's
// Observe here — the hold-duration distribution that says what holds
// actually cost in latency. Only meaningful with a clock (frames are not
// timestamped otherwise); nil uninstalls.
func (b *Batcher) SetHoldObserver(obs func(int64)) { b.holdObs = obs }

// Stats returns a snapshot of the batching counters.
func (b *Batcher) Stats() BatcherStats { return b.stats }

// Pending reports the number of frames awaiting a flush.
func (b *Batcher) Pending() int { return len(b.frames) }

// PendingSubs reports the number of wires awaiting a flush across all
// pending frames — what a held flush decision left behind.
func (b *Batcher) PendingSubs() int {
	n := 0
	for i := range b.frames {
		n += b.frames[i].subs
	}
	return n
}

// Send appends a point-to-point wire image headed to peer to, given as
// segments that are gathered in order (a member's epoch prefix and the
// engine's image). The data is copied during the call; the caller may
// reuse its buffers.
func (b *Batcher) Send(to event.Addr, wire ...[]byte) { b.append(false, to, wire) }

// Cast appends a multicast wire image, gathered from its segments like
// Send's. The data is copied during the call.
func (b *Batcher) Cast(wire ...[]byte) { b.append(true, 0, wire) }

// append encodes wire into the tail frame: field-delta-encoded when both
// it and the previous sub parse as compressed images and the seqno delta
// fits; otherwise a shared-prefix sub when enough leading bytes match
// the previous wire (acks and gossip repeat their headers even though
// the coder has no model of their fields, and plain-stack data wires
// repeat theirs around a changed seqno), in whichever prefix form is
// shortest (appendPrefixSub); a flagged full sub as the last resort.
// Either way the wire becomes the next delta base (an unparseable wire
// clears the field base, so a following delta sub can never refer past
// an opaque one) and the next prefix base.
//
// A wire at least maxBytes long fills a frame on its own, and a few
// elided header bytes would cost each receiver a rebuild of the whole
// wire. It rides verbatim instead: where a shared prefix would apply, as
// a prefix sub with n = 0 (still dependent on its predecessor, so the
// frame keeps its place in the chain), and full otherwise. Receivers
// surface both in place (delta.go).
func (b *Batcher) append(cast bool, to event.Addr, segs [][]byte) {
	wire := b.next[:0]
	for _, s := range segs {
		wire = append(wire, s...)
	}
	b.stats.SubPackets++
	b.stats.ClassicBytes += int64(1 + uvarintLen(uint64(len(wire))) + len(wire))
	f := b.tail(cast, to, 1+binary.MaxVarintLen32+len(wire))
	if b.now != nil {
		// Feed the chain's append-cadence estimate: a fast EWMA of the
		// inter-append gap, the signal the hold decision reads.
		now := b.now()
		if f.st.lastAppend >= 0 {
			gap := now - f.st.lastAppend
			if f.st.gapEWMA < 0 {
				f.st.gapEWMA = gap
			} else {
				f.st.gapEWMA = (3*f.st.gapEWMA + gap) / 4
			}
		}
		f.st.lastAppend = now
	}
	// The first sub of a frame encodes against the previous frame's last
	// sub when tail() seeded the chain's shadow: count how often that
	// pays off versus riding full.
	first := f.subs == 0
	f.subs++
	cur := parseSub(wire, b.nPrefix)
	verbatim := len(wire) >= b.maxBytes
	delta, full := false, false
	if cur.ok && f.base.ok && !verbatim {
		f.buf, delta = appendDeltaSub(f.buf, wire, cur, f.base, b.nPrefix, b.prev)
	}
	if verbatim {
		b.stats.VerbatimSubs++
	}
	if delta {
		b.stats.DeltaSubs++
	} else if n := commonPrefixLen(b.prev, wire); n >= minPrefixLen && verbatim {
		f.buf = append(f.buf, subPrefix, 0)
		f.buf = binary.AppendUvarint(f.buf, uint64(len(wire)))
		f.buf = append(f.buf, wire...)
	} else if n >= minPrefixLen {
		var run bool
		f.buf, run = appendPrefixSub(f.buf, wire, b.prev, n)
		b.stats.PrefixSubs++
		if run {
			b.stats.RunSubs++
		}
	} else {
		full = true
		f.buf = append(f.buf, subFull)
		f.buf = binary.AppendUvarint(f.buf, uint64(len(wire)))
		f.buf = append(f.buf, wire...)
	}
	if first && full {
		b.stats.XFirstFull++
	} else if first {
		b.stats.XFirstDelta++
	}
	f.base = cur
	b.prev, b.next = wire, b.prev
	if len(f.buf) >= b.maxBytes {
		b.FlushFor(FlushSize)
	}
}

// peer returns (creating on first use) the chain state for a destination.
func (b *Batcher) peer(cast bool, to event.Addr) *peerState {
	k := chainKey(cast, to)
	st := b.peers[k]
	if st == nil {
		st = &peerState{gen: 1, lastAppend: -1, gapEWMA: -1}
		if b.peers == nil {
			b.peers = make(map[xKey]*peerState)
		}
		b.peers[k] = st
	}
	return st
}

// tail returns the frame to append into: the newest frame when it has
// the same destination and room, a fresh frame at the end of the queue
// otherwise. Only the newest frame is ever appendable — that is what
// makes emission order equal append order (see the file comment).
func (b *Batcher) tail(cast bool, to event.Addr, need int) *batchFrame {
	if n := len(b.frames); n > 0 {
		f := &b.frames[n-1]
		if f.cast == cast && (cast || f.to == to) && len(f.buf)+need <= b.maxBytes {
			return f
		}
	}
	// The current tail stops being appendable: bank its trailing state as
	// the chain's cross-frame shadow before b.prev is repurposed.
	b.closeTail()
	var buf []byte
	if n := len(b.free); n > 0 {
		buf = b.free[n-1]
		b.free = b.free[:n-1]
	}
	st := b.peer(cast, to)
	st.frameSeq++
	flag := byte(0)
	if cast {
		flag = xflagCast
	}
	buf = append(buf[:0], FrameMagic, flag)
	buf = binary.AppendUvarint(buf, st.gen)
	buf = binary.AppendUvarint(buf, st.frameSeq)
	b.prev = b.prev[:0] // a fresh frame has no in-frame predecessor...
	var base subMeta
	if st.hasShadow && st.sinceFull < xAnchorEvery {
		// ...unless the chain's shadow carries one across the frame
		// boundary: the receiver's mirror holds the same bytes. Every
		// xAnchorEvery-th frame forgoes the shadow and rides a full first
		// sub — a self-contained anchor the receiver can adopt statelessly.
		base = st.shadowMeta
		b.prev = append(b.prev, st.shadow...)
		st.sinceFull++
	} else {
		st.sinceFull = 0
	}
	b.stats.XFrames++
	var born int64
	if b.now != nil {
		born = b.now()
	}
	b.frames = append(b.frames, batchFrame{cast: cast, to: to, buf: buf, base: base, st: st, born: born})
	return &b.frames[len(b.frames)-1]
}

// closeTail records the newest frame's trailing delta state into its
// chain's shadow, making it the cross-frame base for that chain's next
// frame. Idempotent; called whenever the tail frame stops being
// appendable (a new frame supersedes it, or a flush is about to emit).
func (b *Batcher) closeTail() {
	n := len(b.frames)
	if n == 0 {
		return
	}
	f := &b.frames[n-1]
	f.st.shadow = append(f.st.shadow[:0], b.prev...)
	f.st.shadowMeta = f.base
	f.st.hasShadow = true
}

// holdable reports whether f may stay pending at a flush point: still
// small, still young, and headed to a chain whose observed append
// cadence says more wires are imminent.
func (f *batchFrame) holdable(now int64) bool {
	if len(f.buf) >= holdMinBytes || now-f.born >= holdMaxNs {
		return false
	}
	g := f.st.gapEWMA
	return g >= 0 && g <= holdGapNs
}

// Flush hands every pending frame to the sink, in creation order, and
// recycles the buffers. Safe to call with nothing pending. Explicit
// flushes never hold: shutdown and generation bumps need the wire empty.
func (b *Batcher) Flush() int { return b.FlushFor(FlushExplicit) }

// FlushFor is Flush with the trigger recorded in the per-cause stats;
// the member and scheduler flush points call it so the counters say
// where coalescing windows close. It returns the number of frames
// emitted: with a clock, an entry-end or barrier flush may hold back a
// suffix of the queue — emitting only a prefix preserves the
// append-order emission guarantee, and held frames age out at the next
// flush point (the owner's sweep tick bounds that).
func (b *Batcher) FlushFor(cause FlushCause) int {
	if len(b.frames) == 0 {
		return 0
	}
	b.closeTail()
	cut := len(b.frames)
	if b.now != nil && (cause == FlushEntryEnd || cause == FlushBarrier) {
		now := b.now()
		for cut > 0 && b.frames[cut-1].holdable(now) {
			cut--
		}
		b.stats.Holds += int64(len(b.frames) - cut)
	}
	if cut == 0 {
		return 0
	}
	observe := b.now != nil && b.holdObs != nil
	var emitT int64
	if observe {
		emitT = b.now()
	}
	for i := 0; i < cut; i++ {
		f := &b.frames[i]
		if observe {
			// Queue residency: how long this frame was left to coalesce
			// before it reached the wire.
			b.holdObs(emitT - f.born)
		}
		if f.cast {
			b.sink.Cast(b.from, f.buf)
		} else {
			b.sink.Send(b.from, f.to, f.buf)
		}
		b.stats.Frames++
		b.stats.FrameBytes += int64(len(f.buf))
		b.free = append(b.free, f.buf)
	}
	held := copy(b.frames, b.frames[cut:])
	for i := held; i < len(b.frames); i++ {
		b.frames[i] = batchFrame{}
	}
	b.frames = b.frames[:held]
	b.stats.Flushes++
	switch cause {
	case FlushSize:
		b.stats.SizeFlushes++
	case FlushEntryEnd:
		b.stats.EntryEndFlushes++
	case FlushBarrier:
		b.stats.BarrierFlushes++
	}
	return cut
}

// restart begins a fresh generation on one chain: the next frame carries
// a full first sub, which any receiver adopts statelessly.
func (st *peerState) restart() {
	st.gen++
	st.frameSeq = 0
	st.hasShadow = false
}

// BumpGenerations starts a fresh generation on every chain — the view-
// install hook: a new view changes the epoch prefix of every wire, the
// group composition, and possibly the member's own rank, so no receiver
// mirror built under the old view may be extended. Pending frames are
// flushed first (their headers already name the old generation).
func (b *Batcher) BumpGenerations() {
	if len(b.peers) == 0 {
		return
	}
	b.Flush()
	for _, st := range b.peers {
		st.restart()
	}
	b.stats.GenBumps++
}

// BumpPeer starts a fresh generation on the chains a rebinding peer can
// see — its point-to-point chain and the shared cast chain. UDPNet calls
// it when a member id reappears from a new socket address: the restarted
// process has no mirror state, so every chain it receives must restart
// with a full first sub.
func (b *Batcher) BumpPeer(to event.Addr) {
	bumped := false
	for _, k := range [2]xKey{chainKey(false, to), chainKey(true, 0)} {
		if st := b.peers[k]; st != nil {
			if !bumped {
				b.Flush()
				bumped = true
			}
			st.restart()
		}
	}
	if bumped {
		b.stats.GenBumps++
	}
}

// HandleResync reacts to a peer's resync packet: if the named chain is
// still in the generation the receiver could not decode, bump it. The
// generation check is what stops a bump storm — duplicate or delayed
// resyncs name a generation the sender has already left and are ignored.
func (b *Batcher) HandleResync(from event.Addr, cast bool, gen uint64) {
	st := b.peers[chainKey(cast, from)]
	if st == nil || st.gen != gen {
		return
	}
	b.Flush()
	st.restart()
	b.stats.ResyncBumps++
}
