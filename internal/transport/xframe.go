package transport

// The wire format, receive side: FrameWalker is the one link every
// substrate hands arriving bytes to. It keeps a mirror of each incoming
// chain's trailing state per (from, to, cast) and sorts every frame by
// what its (generation, frameSeq) header proves:
//
//   - exact continuity with the mirror: decode against it and advance;
//   - continuity with the generation the chain just left (a pre-bump
//     straggler): decode against that generation's state;
//   - an older generation, or a duplicate of a consumed frame: stale by
//     definition — surfaced whole as one garbage sub (stray-packet
//     accounting downstream), never answered;
//   - a frame whose first sub rides full: self-contained — decode
//     statelessly and adopt the mirror forward;
//   - anything else needs a base the receiver does not hold: park it in
//     a bounded reorder stash while its predecessor may still be in
//     flight, and once the hole is evidently a loss, answer with a
//     resync packet naming the chain:
//
//	magic byte = ResyncMagic, flags byte (0x01 = cast chain), uvarint gen
//
// The sender bumps the chain's generation when the resync names its
// current generation (so one loss triggers one bump, not a storm per
// duplicate resync), on view install (core.Member), and on peer rebind
// (UDPNet) — after a bump the next frame starts a fresh generation with
// a full first sub, which any receiver adopts statelessly. Whatever
// arrives, every byte is accounted for and nothing panics: a corrupted
// header surfaces the whole frame as garbage and seeds no mirror, and a
// packet that is not a frame at all — a resync, a raw control packet, a
// datagram in some retired format — passes through whole.

import (
	"encoding/binary"

	"ensemble/internal/event"
	"ensemble/internal/obs"
)

// ResyncMagic is the first byte of a resync packet — a receiver's
// request that the sender start a fresh generation for one chain.
const ResyncMagic = 0xBA

// IsResync reports whether data begins a resync packet. The member
// routes these into its Batcher instead of the stack.
func IsResync(data []byte) bool { return len(data) > 0 && data[0] == ResyncMagic }

// appendResync appends a resync packet for the given chain to buf.
func appendResync(buf []byte, cast bool, gen uint64) []byte {
	flag := byte(0)
	if cast {
		flag = xflagCast
	}
	buf = append(buf, ResyncMagic, flag)
	return binary.AppendUvarint(buf, gen)
}

// ParseResync decodes a resync packet. The parse is strict — reserved
// flag bits, non-minimal varints, or trailing bytes all report !ok — so
// a corrupted packet falls through to stray accounting instead of
// bumping a generation it never named.
func ParseResync(data []byte) (cast bool, gen uint64, ok bool) {
	if len(data) < 3 || data[0] != ResyncMagic || data[1]&^byte(xflagCast) != 0 {
		return false, 0, false
	}
	g, k := binary.Uvarint(data[2:])
	if k <= 0 || k != uvarintLen(g) || 2+k != len(data) {
		return false, 0, false
	}
	return data[1]&xflagCast != 0, g, true
}

// parseXHeader decodes a frame header, returning the offset of the
// first sub. Strict like ParseResync: reserved flag bits or non-minimal
// varints report !ok, and the caller surfaces the whole frame as one
// garbage sub (a bit-flipped header must never seed a mirror).
func parseXHeader(data []byte) (cast bool, gen, seq uint64, off int, ok bool) {
	if len(data) < 4 || data[0] != FrameMagic || data[1]&^byte(xflagCast) != 0 {
		return false, 0, 0, 0, false
	}
	cast = data[1]&xflagCast != 0
	off = 2
	g, k := binary.Uvarint(data[off:])
	if k <= 0 || k != uvarintLen(g) {
		return false, 0, 0, 0, false
	}
	off += k
	s, k := binary.Uvarint(data[off:])
	if k <= 0 || k != uvarintLen(s) || s == 0 {
		return false, 0, 0, 0, false
	}
	off += k
	return cast, g, s, off, true
}

// LinkCounters are a receive link's verdict counters. They are atomic
// so a substrate can adopt them into its metrics registry and snapshot
// them while the link runs.
type LinkCounters struct {
	// Frames counts arrivals that carried the frame magic; SubPackets
	// counts the subs fanned out of them (garbage subs included).
	Frames, SubPackets obs.Counter
	// GenMisses counts frames that could not be decoded without mirror
	// state the link lacked, each answered with one resync (Resyncs);
	// StaleGenFrames counts pre-bump stragglers and consumed duplicates
	// surfaced whole as garbage, never answered.
	GenMisses, StaleGenFrames, Resyncs obs.Counter
}

// FrameWalker is the receive link: it unpacks arriving frames into
// their sub-packets, keeps the per-chain mirrors, counts its verdicts,
// and encodes the resync answer. It is single-goroutine, like the
// substrate (or substrate shard) that owns it.
//
// stableSubs selects the lifetime of reconstructed subs. With
// stableSubs, every reconstruction goes into fresh storage, so surfaced
// subs stay valid as long as the frame buffer itself — what the netsim
// substrates need, because decoded payloads may be retained by the
// application and the layers keep arrival bytes by reference (the frame
// buffer there is a read-only copy nobody rewrites — one per transmission
// in the simulator, shared by its receivers, one per datagram under UDP;
// a parked frame is kept by reference too, and so is a trailing sub the
// mirror keeps that was surfaced in place). Without it the walker
// reuses one scratch buffer and a reconstructed sub is only valid until
// the next WalkLink call — the zero-allocation choice for harnesses
// whose consumers treat arrivals as borrowed (event.Event.Borrowed; the
// bench pumps recycle delivered buffers under that contract).
type FrameWalker struct {
	stable  bool
	scratch []byte
	links   map[linkKey]*linkMirror
	ctr     *LinkCounters
}

// NewWalker builds a link; see the type comment for stableSubs.
func NewWalker(stableSubs bool) *FrameWalker {
	return &FrameWalker{stable: stableSubs, ctr: &LinkCounters{}}
}

// NewFrameWalker is NewWalker under the name the benchmark module calls
// (benchmark/probes.go); the epoch prefix count it takes is ignored,
// since framing treats a wire as opaque bytes. It stays while that
// caller does.
func NewFrameWalker(prefixUvarints int, stableSubs bool) *FrameWalker {
	return NewWalker(stableSubs)
}

// Fork returns a link configured like w that keeps its own mirrors but
// counts into w's counters — one per shard of a substrate whose shards
// receive in parallel and report as one network.
func (w *FrameWalker) Fork() *FrameWalker {
	return &FrameWalker{stable: w.stable, ctr: w.ctr}
}

// Counters exposes the link's verdict counters.
func (w *FrameWalker) Counters() *LinkCounters { return w.ctr }

// linkKey identifies one incoming chain at the receiver: the mirror of
// the sender's xKey, qualified by the sender's address.
type linkKey struct {
	from, to event.Addr
	cast     bool
}

// Reorder-stash tuning. Neither netsim links nor UDP are FIFO, and a
// frame whose first sub rides the cross-frame base is undecodable until
// its predecessor lands — so instead of surfacing it as garbage the
// receiver parks it, bounded, and drains it in sequence once the mirror
// catches up. xStashCap caps the parked frames per link (beyond it a
// frame falls back to the resync path). xStashNag is the liveness
// threshold: one or two parked frames are almost always plain
// reordering with the predecessor still in flight, but a stash that
// keeps growing means the hole is a real loss, so every arrival past
// the threshold reports a generation miss and earns a resync.
const (
	xStashCap = 32
	xStashNag = 2
)

// genState is one generation's trailing decode state: the frame counter
// last accepted and the last surfaced sub. prev is storage the mirror
// owns, or, when ref is set, a sub a stable link surfaced in place: a
// slice of a frame nobody rewrites, kept by reference (see keep).
type genState struct {
	gen      uint64 // 0 = dead
	frameSeq uint64
	prev     []byte
	ref      bool
}

// keep makes last, the trailing sub of a frame just walked, g's base for
// the next frame. A stable link keeps a sub it surfaced in place by
// reference: its frame is read-only and already retained downstream.
// Everything else is copied into storage g owns: a rebuilt sub sits in
// the walk's buffer beside every other sub of the frame, and a scratch
// link's caller recycles both. The copy never appends into a referenced
// frame; g drops the reference and starts storage of its own instead.
func (w *FrameWalker) keep(g *genState, last []byte, inPlace bool) {
	if w.stable && inPlace {
		g.prev, g.ref = last, true
		return
	}
	if g.ref {
		g.prev, g.ref = nil, false
	}
	g.prev = append(g.prev[:0], last...)
}

// linkMirror is the receiver's copy of a chain's trailing state. It
// tracks two generations: cur, the one the chain is on, and old, the one
// it just left. A generation bump happens at the sender while frames of
// the outgoing generation are still in flight; without old, every one of
// them would land whole in garbage accounting, turning one loss into a
// window's worth — and each garbage frame is a sub the stack's NAK layer
// must then re-fetch, which amplifies further under sustained loss.
// With old, a pre-bump straggler that arrives in continuity decodes
// exactly as it would have before the bump.
type linkMirror struct {
	valid bool
	cur   genState
	old   genState
	// stash holds reordered frames of generation sgen that arrived before
	// their predecessor, keyed by frame sequence and drained in order as
	// the matching generation's state advances past each hole.
	sgen  uint64
	stash map[uint64][]byte
}

// walkResult is walkLink's verdict on one frame; WalkLink turns it into
// counters and the resync answer.
type walkResult struct {
	// subs is the number of subs surfaced (garbage subs included).
	subs int
	// cast and gen echo the frame header (valid when it parsed) — what a
	// resync answer must name.
	cast bool
	gen  uint64
	// genMiss reports that the frame could not be decoded without mirror
	// state the receiver does not have: the sender should start a fresh
	// generation for (cast, gen).
	genMiss bool
	// staleGen reports a frame from a generation older than the mirror,
	// or a duplicate of a consumed frame — surfaced whole as garbage,
	// never answered.
	staleGen bool
	// stashed reports that the frame was parked in the reorder stash to
	// wait for its predecessor (it may still set genMiss past xStashNag).
	stashed bool
}

// WalkLink hands one arrival on the from→to link to the walker, calling
// fn once per surfaced sub-packet in order; anything that is not a frame
// surfaces whole. It returns the encoded resync answer — non-nil when
// the frame needed chain state this link does not hold, in which case
// the substrate sends it back from `to` to `from` as an ordinary raw
// packet — and whether the arrival was a frame that decoded in a live
// generation, which is what closes a resync round trip.
func (w *FrameWalker) WalkLink(from, to event.Addr, data []byte, fn func(sub []byte)) (resync []byte, decoded bool) {
	if !IsFrame(data) {
		fn(data)
		return nil, false
	}
	r := w.walkLink(from, to, data, fn)
	w.ctr.Frames.Inc()
	w.ctr.SubPackets.Add(int64(r.subs))
	if r.staleGen {
		w.ctr.StaleGenFrames.Inc()
	}
	if r.genMiss {
		w.ctr.GenMisses.Inc()
		w.ctr.Resyncs.Inc()
		return appendResync(nil, r.cast, r.gen), false
	}
	return nil, !r.staleGen && r.subs > 0
}

// walkLink checks a frame against the (from, to, cast) mirror and
// decodes it by the rules in the file comment.
func (w *FrameWalker) walkLink(from, to event.Addr, data []byte, fn func(sub []byte)) walkResult {
	var r walkResult
	cast, gen, seq, off, ok := parseXHeader(data)
	if !ok {
		// A corrupted header cannot be trusted to name a chain: surface
		// the whole frame as garbage and do not answer.
		fn(data)
		r.subs = 1
		return r
	}
	r.cast, r.gen = cast, gen
	key := linkKey{from: from, to: to, cast: cast}
	m := w.links[key]
	if m != nil && m.valid && gen == m.cur.gen && seq == m.cur.frameSeq+1 {
		// Exact continuity: decode against the mirror, then advance it.
		if w.advance(m, &m.cur, data, off, seq, &r, fn) {
			w.drainStash(m, &m.cur, &r, fn)
		}
		return r
	}
	if m != nil && m.old.gen != 0 && gen == m.old.gen && seq == m.old.frameSeq+1 {
		// A pre-bump straggler in continuity with the generation the chain
		// just left: decode it exactly as the pre-bump mirror would have.
		if w.advance(m, &m.old, data, off, seq, &r, fn) {
			w.drainStash(m, &m.old, &r, fn)
		}
		return r
	}
	if m != nil && m.valid && gen < m.cur.gen {
		// A straggler with no continuity to give: pre-bump garbage,
		// surfaced whole for stray accounting, never answered.
		fn(data)
		r.subs = 1
		r.staleGen = true
		return r
	}
	// No usable mirror (first contact, newer generation, or a sequence
	// gap). A frame whose first sub needs the cross-frame base cannot
	// surface anything but garbage here — links reorder, so park it in
	// the stash while its predecessor may still be in flight.
	if off < len(data) && data[off] != subFull {
		if m != nil && m.valid && gen == m.cur.gen && seq <= m.cur.frameSeq {
			// A duplicate (or late reordered copy) of a frame this mirror
			// already consumed: the chain is healthy, so answering would
			// bump a live generation once per duplicate — a resync storm.
			// Stale garbage, not missed.
			fn(data[off:])
			r.subs = 1
			r.staleGen = true
			return r
		}
		m = w.mirror(key)
		if gen > m.sgen {
			// The stash tracks one generation — the newest seen; older
			// parked frames can never extend a mirror that moved past them.
			m.stash = nil
			m.sgen = gen
		}
		if gen == m.sgen && len(m.stash) < xStashCap {
			if m.stash == nil {
				m.stash = make(map[uint64][]byte)
			}
			if _, dup := m.stash[seq]; !dup {
				// A stable link's frame buffer is never rewritten, so it is
				// parked as it is; a scratch link's caller recycles it.
				if !w.stable {
					data = append([]byte(nil), data...)
				}
				m.stash[seq] = data
			}
			r.stashed = true
			if len(m.stash) <= xStashNag {
				return r
			}
		}
		r.genMiss = true
		return r
	}
	// Self-contained frame (full first sub): decode statelessly and adopt
	// the mirror forward.
	subs, last, inPlace, clean := w.walkSubs(data, off, nil, fn)
	r.subs = subs
	if !clean {
		r.genMiss = true
		return r
	}
	// Adopt only forward (newer generation, or a later frame of the
	// current one): a duplicated old frame must not rewind the mirror
	// under the in-order successor's feet.
	if subs > 0 && (m == nil || !m.valid || gen > m.cur.gen || (gen == m.cur.gen && seq > m.cur.frameSeq)) {
		m = w.mirror(key)
		if m.valid && gen > m.cur.gen {
			// The chain moved on; keep the outgoing generation's trailing
			// state so its in-flight stragglers still decode. The new
			// generation starts with no storage: the two must never share
			// what keep appends into.
			m.old = m.cur
			m.cur.prev, m.cur.ref = nil, false
		}
		m.valid = true
		m.cur.gen = gen
		m.cur.frameSeq = seq
		w.keep(&m.cur, last, inPlace)
		w.drainStash(m, &m.cur, &r, fn)
	}
	return r
}

// mirror returns (creating on first use) the mirror for one link.
func (w *FrameWalker) mirror(key linkKey) *linkMirror {
	m := w.links[key]
	if m == nil {
		m = &linkMirror{}
		if w.links == nil {
			w.links = make(map[linkKey]*linkMirror)
		}
		w.links[key] = m
	}
	return m
}

// advance decodes one frame in continuity with generation state g — the
// mirror's live generation or the one it just left — and moves g past
// it. A frame that breaks mid-decode kills g instead and reports false:
// nothing after it can extend that state either, so a broken live chain
// is invalidated and asks for a restart, while a broken outgoing
// generation just turns its remaining stragglers into garbage and leaves
// the live chain untouched.
func (w *FrameWalker) advance(m *linkMirror, g *genState, data []byte, off int, seq uint64, r *walkResult, fn func(sub []byte)) bool {
	subs, last, inPlace, clean := w.walkSubs(data, off, g.prev, fn)
	r.subs += subs
	if !clean {
		m.old.gen = 0
		if g == &m.cur {
			m.valid = false
			r.genMiss = true
		} else {
			r.staleGen = true
		}
		return false
	}
	g.frameSeq = seq
	if subs > 0 {
		w.keep(g, last, inPlace)
	}
	return true
}

// drainStash surfaces parked successors of generation state g in frame
// order until the next hole. Entries g moved past are dead: their
// content was either consumed already or skipped by a forward adoption,
// and the stack's NAK layer recovers whatever the skip dropped.
func (w *FrameWalker) drainStash(m *linkMirror, g *genState, r *walkResult, fn func(sub []byte)) {
	if len(m.stash) == 0 || m.sgen != g.gen {
		if m.sgen < m.cur.gen && m.sgen != m.old.gen {
			m.stash = nil
		}
		return
	}
	for s := range m.stash {
		if s <= g.frameSeq {
			delete(m.stash, s)
		}
	}
	for {
		d, ok := m.stash[g.frameSeq+1]
		if !ok {
			return
		}
		delete(m.stash, g.frameSeq+1)
		_, _, seq, off, _ := parseXHeader(d) // parsed strict when stashed
		if !w.advance(m, g, d, off, seq, r, fn) {
			return
		}
	}
}

// InvalidateFrom drops every mirror fed by one sender address — the
// receive half of a peer rebind: a restarted sender's chains share
// nothing with the old process's, whatever generations its headers name.
func (w *FrameWalker) InvalidateFrom(from event.Addr) {
	for k, m := range w.links {
		if k.from == from {
			m.valid = false
			m.old.gen = 0
			m.stash = nil
		}
	}
}
