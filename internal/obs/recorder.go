package obs

import (
	"encoding/binary"
	"fmt"

	"ensemble/internal/event"
)

// Kind is a flight-record event type. Values below 32 mirror
// event.Type (use KindOf to convert), so a trace layer can record the
// events flowing past it without a translation table; values from 64 up
// are member- and engine-level kinds with no event equivalent.
type Kind uint8

// KindOf maps a stack event type onto its recorder kind.
func KindOf(t event.Type) Kind { return Kind(t) }

const (
	// KindPktOut marks a wire image handed to the transport.
	KindPktOut Kind = 64 + iota
	// KindPktIn marks a wire image arriving from the network.
	KindPktIn
	// KindDeliver marks an application-level delivery.
	KindDeliver
	// KindTimerSweep marks a member timer sweep.
	KindTimerSweep
	// KindViewInstall marks a view installation.
	KindViewInstall
	// KindFlush marks a batcher flush reaching the network.
	KindFlush
	// KindCCPHit marks a MACH engine routing an operation through a
	// compiled common-case predicate bypass.
	KindCCPHit
	// KindCCPMiss marks a MACH engine falling through to the full stack.
	KindCCPMiss
	// KindFlushDecision marks an adaptive flush controller verdict that
	// left frames pending at a flush point: Layer carries the
	// transport.FlushCause and Seq the sub-packets still held.
	KindFlushDecision
	// KindCastSubmit marks the application handing a cast payload to the
	// member — the root of a message's causal chain. Seq is the member's
	// own-cast submission count, so the chained workload's canonical
	// order maps each delivery back to exactly one CastSubmit (spans.go).
	KindCastSubmit
)

// kindMax is the highest defined kind — the upper bound ParseKind and
// KindNames iterate to, so adding a kind above cannot silently fall out
// of the name table.
const kindMax = KindCastSubmit

// String names the kind; event-mirroring kinds borrow event.Type names.
func (k Kind) String() string {
	if k < 32 {
		return event.Type(k).String()
	}
	switch k {
	case KindPktOut:
		return "PktOut"
	case KindPktIn:
		return "PktIn"
	case KindDeliver:
		return "Deliver"
	case KindTimerSweep:
		return "TimerSweep"
	case KindViewInstall:
		return "ViewInstall"
	case KindFlush:
		return "Flush"
	case KindCCPHit:
		return "CCPHit"
	case KindCCPMiss:
		return "CCPMiss"
	case KindFlushDecision:
		return "FlushDecision"
	case KindCastSubmit:
		return "CastSubmit"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Directions for Rec.Dir, matching event.Dir numerically.
const (
	DirUp uint8 = 0
	DirDn uint8 = 1
)

// Rec is one flight record: what happened (Kind, Dir, Layer), to which
// message (Seq), when in virtual time (T), on which member (Rank). The
// struct is fixed-size and pointer-free so a ring of them is one flat
// allocation the garbage collector never scans.
type Rec struct {
	// T is the virtual time of the event in nanoseconds (deterministic
	// under the netsim protocol; harnesses without a clock use a round
	// or event counter).
	T int64
	// Seq is the event's sequence number — message seqno, packet count,
	// whatever monotone series the recording site maintains.
	Seq int64
	// Rank is the recording member's rank.
	Rank int16
	// Kind is the event type.
	Kind Kind
	// Dir is DirUp or DirDn.
	Dir uint8
	// Layer is the recording layer's registered id (0 for member-level
	// records).
	Layer uint8
}

// Track is one member's flight ring: a fixed-size circular buffer of
// records with a single writer (the member's goroutine, per the netsim
// drain-phase ownership rules — single-writer is what makes the write
// path lock-free). Record on a nil Track is a no-op, so call sites need
// no observability-enabled branch of their own.
type Track struct {
	rank  int16
	recs  []Rec
	next  int
	total int64
}

// Record appends one record, overwriting the oldest once the ring is
// full. It never allocates.
func (t *Track) Record(now int64, kind Kind, dir uint8, layer uint8, seq int64) {
	if t == nil {
		return
	}
	t.recs[t.next] = Rec{T: now, Seq: seq, Rank: t.rank, Kind: kind, Dir: dir, Layer: layer}
	t.next++
	if t.next == len(t.recs) {
		t.next = 0
	}
	t.total++
}

// Total reports how many records were ever written (including ones the
// ring has since overwritten).
func (t *Track) Total() int64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Ordered returns the ring's surviving records, oldest first.
func (t *Track) Ordered() []Rec {
	if t == nil {
		return nil
	}
	n := len(t.recs)
	if t.total < int64(n) {
		n = int(t.total)
		return append([]Rec(nil), t.recs[:n]...)
	}
	out := make([]Rec, 0, n)
	out = append(out, t.recs[t.next:]...)
	return append(out, t.recs[:t.next]...)
}

// Reset empties the track.
func (t *Track) Reset() {
	if t == nil {
		return
	}
	t.next, t.total = 0, 0
}

// Recorder is a flight recorder: one fixed-size Track per member, all
// rings allocated up front so recording never allocates. Dumps are
// deterministic — tracks are concatenated in rank order, and each
// track's contents depend only on its member's (deterministic) event
// sequence — so a Run and a RunConcurrent of the same seed dump
// byte-identical flights.
type Recorder struct {
	tracks []*Track
}

// NewRecorder builds a recorder for members ranks 0..members-1 with
// perMember ring slots each (minimum 1).
func NewRecorder(members, perMember int) *Recorder {
	if perMember < 1 {
		perMember = 1
	}
	r := &Recorder{tracks: make([]*Track, members)}
	for i := range r.tracks {
		r.tracks[i] = &Track{rank: int16(i), recs: make([]Rec, perMember)}
	}
	return r
}

// Track returns member rank's track, or nil when out of range (so a
// misconfigured rank records nowhere rather than panicking mid-flight).
func (r *Recorder) Track(rank int) *Track {
	if r == nil || rank < 0 || rank >= len(r.tracks) {
		return nil
	}
	return r.tracks[rank]
}

// Members reports the number of tracks.
func (r *Recorder) Members() int { return len(r.tracks) }

// Reset empties every track.
func (r *Recorder) Reset() {
	for _, t := range r.tracks {
		t.Reset()
	}
}

// dumpMagic heads a binary flight dump; the trailing byte versions the
// record layout.
var dumpMagic = []byte("ENSFLT\x01")

// recWireSize is one record's bytes on a dump: T, Seq, kind, dir, layer
// (rank lives in the track header).
const recWireSize = 8 + 8 + 3

// DumpBytes serializes the recorder: magic, track count, then per track
// (in rank order) the rank, the surviving record count, and the records
// oldest-first in fixed-width little-endian. Identical flights dump
// identical bytes.
func (r *Recorder) DumpBytes() []byte {
	out := append([]byte(nil), dumpMagic...)
	out = binary.AppendUvarint(out, uint64(len(r.tracks)))
	for _, t := range r.tracks {
		out = appendTrack(out, uint64(t.rank), t.Ordered())
	}
	return out
}

// ParseDump decodes a DumpBytes image back into per-rank record slices,
// for tests and offline analysis.
func ParseDump(data []byte) (map[int][]Rec, error) {
	if len(data) < len(dumpMagic) || string(data[:len(dumpMagic)]) != string(dumpMagic) {
		return nil, fmt.Errorf("obs: not a flight dump")
	}
	off := len(dumpMagic)
	ntracks, k := binary.Uvarint(data[off:])
	if k <= 0 {
		return nil, fmt.Errorf("obs: truncated dump header")
	}
	off += k
	out := make(map[int][]Rec, ntracks)
	for i := uint64(0); i < ntracks; i++ {
		rank, k := binary.Uvarint(data[off:])
		if k <= 0 {
			return nil, fmt.Errorf("obs: truncated track header")
		}
		off += k
		count, k := binary.Uvarint(data[off:])
		if k <= 0 {
			return nil, fmt.Errorf("obs: truncated track header")
		}
		off += k
		if uint64(len(data)-off) < count*recWireSize {
			return nil, fmt.Errorf("obs: truncated track body")
		}
		recs := make([]Rec, 0, count)
		for j := uint64(0); j < count; j++ {
			recs = append(recs, Rec{
				T:     int64(binary.LittleEndian.Uint64(data[off:])),
				Seq:   int64(binary.LittleEndian.Uint64(data[off+8:])),
				Rank:  int16(rank),
				Kind:  Kind(data[off+16]),
				Dir:   data[off+17],
				Layer: data[off+18],
			})
			off += recWireSize
		}
		out[int(rank)] = recs
	}
	return out, nil
}
