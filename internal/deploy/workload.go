package deploy

import (
	"encoding/binary"
	"fmt"
)

// The equivalence workload. Every member casts Rounds messages through
// the 10-layer MACH stack, but admission is chained: member r submits
// its round-i cast only after it has delivered every message that
// precedes (i, r) in the canonical order (0,0), (0,1) … (0,N-1),
// (1,0), … — at most one cast is unordered anywhere in the system at a
// time. The chain is what makes cross-substrate equivalence a sharp
// assertion rather than a statistical one: the 10-layer stack's
// sequencer assigns global order by arrival, so with one cast in
// flight the global sequence is forced to the canonical order by the
// protocol itself, on the simulated network and on real sockets alike.
// Both substrates must then deliver the identical per-member sequence,
// and any deviation — a reordering, a loss the NAK layer failed to
// repair, a misattributed sender — surfaces as a first divergence at a
// specific message. (The chain costs concurrency, not coverage: every
// layer still processes every message, and batching/delta framing
// still engage on the order announcements and acks riding each burst.)

// MsgID identifies one workload cast: the origin's rank and the
// origin-local round index.
type MsgID struct {
	Origin int `json:"origin"`
	Index  int `json:"index"`
}

// Workload are the parameters both substrates share.
type Workload struct {
	Members int
	Rounds  int
	// Size is the cast payload size in bytes (minimum workloadMinSize:
	// the id header; the rest is deterministic filler).
	Size int
	// Seed drives the netsim reference's link model. The UDP run has
	// real timing instead; equivalence must hold for every seed, which
	// is exactly the claim being checked.
	Seed int64
}

// workloadMinSize is the encoded MsgID header: two uvarints, each at
// most 10 bytes.
const workloadMinSize = 4

// Payload encodes id into a fresh size-padded workload payload.
func (w Workload) Payload(id MsgID) []byte {
	size := w.Size
	buf := make([]byte, 0, max(size, workloadMinSize))
	buf = binary.AppendUvarint(buf, uint64(id.Origin))
	buf = binary.AppendUvarint(buf, uint64(id.Index))
	for len(buf) < size {
		// Deterministic filler keyed by the id, so padding corruption is
		// not silent.
		buf = append(buf, byte(id.Origin*31+id.Index+len(buf)))
	}
	return buf
}

// DecodePayload recovers the MsgID from a workload payload.
func DecodePayload(p []byte) (MsgID, error) {
	origin, n := binary.Uvarint(p)
	if n <= 0 {
		return MsgID{}, fmt.Errorf("deploy: truncated workload payload")
	}
	index, k := binary.Uvarint(p[n:])
	if k <= 0 {
		return MsgID{}, fmt.Errorf("deploy: truncated workload payload")
	}
	return MsgID{Origin: int(origin), Index: int(index)}, nil
}

// Total is the number of casts the workload admits.
func (w Workload) Total() int { return w.Members * w.Rounds }

// CanonicalAt is the message the canonical order admits at position
// pos: round pos/N from member pos%N.
func (w Workload) CanonicalAt(pos int) MsgID {
	return MsgID{Origin: pos % w.Members, Index: pos / w.Members}
}

// CanonicalLog is the full canonical delivery sequence — what every
// member of a correct run delivers, on either substrate.
func (w Workload) CanonicalLog() []MsgID {
	log := make([]MsgID, w.Total())
	for i := range log {
		log[i] = w.CanonicalAt(i)
	}
	return log
}

// chainDriver is one member's view of the chain: the delivery log so
// far, and the decision of when it is this member's turn to cast. All
// methods run on the member's goroutine (the delivery handler); the
// log is read by others only after the run has quiesced.
type chainDriver struct {
	w    Workload
	rank int
	log  []MsgID
	// casts counts own submissions, so a turn is taken exactly once
	// even if the turn check runs twice at the same position.
	casts int
}

// deliver records one delivery.
func (c *chainDriver) deliver(id MsgID) { c.log = append(c.log, id) }

// next returns the message this member must cast now, if the chain has
// reached one of its turns: position len(log) is member rank's slot and
// that slot's cast has not been submitted yet.
func (c *chainDriver) next() (MsgID, bool) {
	pos := len(c.log)
	if pos >= c.w.Total() || pos%c.w.Members != c.rank {
		return MsgID{}, false
	}
	if id := c.w.CanonicalAt(pos); c.casts == id.Index {
		c.casts++
		return id, true
	}
	return MsgID{}, false
}

// done reports whether this member has delivered the whole workload.
func (c *chainDriver) done() bool { return len(c.log) >= c.w.Total() }

// CompareLogs locates the first difference between two runs' per-member
// delivery logs: the lowest (position, rank) at which they disagree.
// ok=false means a divergence was found at log position pos of member
// rank; a and b carry the differing entries (nil-signaled via ok fields
// is avoided — a missing entry reports MsgID{-1,-1}).
func CompareLogs(x, y [][]MsgID) (rank, pos int, a, b MsgID, ok bool) {
	missing := MsgID{Origin: -1, Index: -1}
	nr := len(x)
	if len(y) > nr {
		nr = len(y)
	}
	first := struct {
		found     bool
		rank, pos int
		a, b      MsgID
	}{}
	note := func(r, p int, av, bv MsgID) {
		if !first.found || p < first.pos || (p == first.pos && r < first.rank) {
			first.found, first.rank, first.pos, first.a, first.b = true, r, p, av, bv
		}
	}
	for r := 0; r < nr; r++ {
		var lx, ly []MsgID
		if r < len(x) {
			lx = x[r]
		}
		if r < len(y) {
			ly = y[r]
		}
		n := len(lx)
		if len(ly) > n {
			n = len(ly)
		}
		for p := 0; p < n; p++ {
			av, bv := missing, missing
			if p < len(lx) {
				av = lx[p]
			}
			if p < len(ly) {
				bv = ly[p]
			}
			if av != bv {
				note(r, p, av, bv)
				break // only the first divergence per member matters
			}
		}
	}
	if first.found {
		return first.rank, first.pos, first.a, first.b, false
	}
	return 0, 0, MsgID{}, MsgID{}, true
}
