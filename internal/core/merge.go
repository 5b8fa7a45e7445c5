package core

import (
	"sort"

	"ensemble/internal/event"
)

// Partition merging. Members that were ever in a view together remember
// each other's addresses; each partition's coordinator periodically
// probes the known addresses outside its current view. When two
// coordinators discover each other, the one with the lower address
// leads: it computes the merged view (sorted union of both member sets,
// sequence number above both) and both partitions adopt it through
// their membership layers' ordinary view announcement. This realizes
// the partition-heal direction Ensemble supports ([25]); the documented
// simplification is that the adopting partitions do not flush — a heal
// is already a delivery discontinuity.
//
// Merge control packets travel outside any view epoch: the epoch tag 0
// is reserved for them (real views start at sequence 1).

const (
	ctrlProbe    byte = 1
	ctrlGrant    byte = 2
	ctrlGrantAck byte = 3
)

// maybeProbe is called from the housekeeping tick: the coordinator of a
// partition probes every known address outside the current view.
func (m *Member) maybeProbe() {
	if m.view.Rank != 0 || m.exited {
		return
	}
	// An outstanding grant whose acknowledgment never arrived (lost, or
	// the other side died mid-merge) expires so merging can resume.
	if m.grantMembers != nil && m.ticks-m.grantTick > 32 {
		m.grantMembers = nil
	}
	var foreign []event.Addr
	for a := range m.known {
		if a != m.addr && m.view.RankOf(a) < 0 {
			foreign = append(foreign, a)
		}
	}
	if len(foreign) == 0 {
		return
	}
	// Probe in ascending address order — emission order must not depend
	// on map iteration order, or the same run replayed from the same
	// seed produces a different network schedule (the draws the
	// simulator assigns to each transmission are positional).
	sort.Slice(foreign, func(i, j int) bool { return foreign[i] < foreign[j] })
	pkt := make([]byte, 0, 16+4*m.view.N())
	pkt = appendUvarint(pkt, 0) // the control epoch
	pkt = append(pkt, ctrlProbe)
	pkt = appendUvarint(pkt, uint64(m.view.ID.Seq))
	pkt = appendUvarint(pkt, uint64(m.addr))
	pkt = appendUvarint(pkt, uint64(m.view.N()))
	for _, a := range m.view.Members {
		pkt = appendUvarint(pkt, uint64(a))
	}
	for _, a := range foreign {
		m.net.Send(m.addr, a, pkt)
	}
}

// handleControl processes an epoch-0 packet (the epoch tag is already
// stripped). It reports whether data was a well-formed control message;
// anything else — an empty body, an unknown kind, a truncated or
// oversized member list — is a stray packet for receive to count, and
// changes nothing here. (A datagram whose first byte is 0x00 lands here
// whatever it was meant to be: a frame's garbage tail that starts at a
// malformed full sub does.)
func (m *Member) handleControl(data []byte) bool {
	if len(data) == 0 {
		return false
	}
	r := ctrlReader{buf: data[1:]}
	switch data[0] {
	case ctrlProbe:
		theirSeq := int64(r.uvarint())
		theirCoord := event.Addr(r.uvarint())
		theirs := r.addrs()
		if theirs == nil {
			return false
		}
		m.handleProbe(theirSeq, theirCoord, theirs)
	case ctrlGrant:
		seq := int64(r.uvarint())
		leader := event.Addr(r.uvarint())
		members := r.addrs()
		if members == nil {
			return false
		}
		// Acknowledge first (the leader only commits once it knows we
		// heard — a half-open partition that can send but not receive
		// must not drag the healthy side into a view it will never act
		// in), then adopt.
		ack := make([]byte, 0, 12)
		ack = appendUvarint(ack, 0)
		ack = append(ack, ctrlGrantAck)
		ack = appendUvarint(ack, uint64(seq))
		m.net.Send(m.addr, leader, ack)
		m.adopt(seq, members)
	case ctrlGrantAck:
		seq := int64(r.uvarint())
		if r.bad {
			return false
		}
		if m.grantSeq == seq && m.grantMembers != nil {
			members := m.grantMembers
			m.grantMembers = nil
			m.adopt(seq, members)
		}
	default:
		return false
	}
	return true
}

// handleProbe runs at a coordinator that another partition's coordinator
// discovered. The lower address leads the merge.
func (m *Member) handleProbe(theirSeq int64, theirCoord event.Addr, theirs []event.Addr) {
	if m.view.Rank != 0 {
		return // only coordinators merge
	}
	for _, a := range theirs {
		m.known[a] = true
	}
	if m.addr >= theirCoord {
		return // they lead (or the probe is our own echo)
	}
	// Already absorbed? Re-grant the current view so the stale partition
	// catches up without churning ours.
	allKnown := true
	for _, a := range theirs {
		if m.view.RankOf(a) < 0 {
			allKnown = false
			break
		}
	}
	if allKnown {
		// The probing partition is stale: re-offer the view we are
		// already in (its ack is a no-op for us).
		m.sendGrant(theirCoord, m.view.ID.Seq, m.view.Members)
		return
	}
	if m.grantMembers != nil {
		// One merge at a time: concurrent probes from several partitions
		// would otherwise each overwrite the outstanding grant, and the
		// partitions would adopt *different* merged views. Losers retry
		// their probes and are absorbed in a later round.
		return
	}
	// Lead the merge: sorted union, sequence above both partitions. Our
	// side commits only when the other side acknowledges the grant.
	merged := sortedUnion(m.view.Members, theirs)
	seq := m.view.ID.Seq
	if theirSeq > seq {
		seq = theirSeq
	}
	seq++
	m.grantSeq, m.grantMembers, m.grantTick = seq, merged, m.ticks
	m.sendGrant(theirCoord, seq, merged)
}

func (m *Member) sendGrant(to event.Addr, seq int64, members []event.Addr) {
	pkt := make([]byte, 0, 16+4*len(members))
	pkt = appendUvarint(pkt, 0)
	pkt = append(pkt, ctrlGrant)
	pkt = appendUvarint(pkt, uint64(seq))
	pkt = appendUvarint(pkt, uint64(m.addr))
	pkt = appendUvarint(pkt, uint64(len(members)))
	for _, a := range members {
		pkt = appendUvarint(pkt, uint64(a))
	}
	m.net.Send(m.addr, to, pkt)
}

// adopt asks this partition's membership layer to install the merged
// view (idempotent for views we already installed or superseded).
func (m *Member) adopt(seq int64, members []event.Addr) {
	if m.view.Rank != 0 || seq <= m.view.ID.Seq {
		return
	}
	if m.view.RankOf(m.addr) < 0 {
		return
	}
	found := false
	for _, a := range members {
		m.known[a] = true
		if a == m.addr {
			found = true
		}
	}
	if !found {
		return // a grant that excludes us is nonsense
	}
	ev := event.Alloc()
	ev.Dir, ev.Type = event.Dn, event.EMergeRequest
	ev.View = &event.View{
		ID:      event.ViewID{Coord: members[0], Seq: seq},
		Group:   m.view.Group,
		Members: append([]event.Addr(nil), members...),
	}
	m.eng.Submit(ev)
	m.settle()
}

func sortedUnion(a, b []event.Addr) []event.Addr {
	set := map[event.Addr]bool{}
	for _, x := range a {
		set[x] = true
	}
	for _, x := range b {
		set[x] = true
	}
	out := make([]event.Addr, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ctrlReader is a minimal error-latching varint reader for control
// packets.
type ctrlReader struct {
	buf []byte
	bad bool
}

func (r *ctrlReader) uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := uvarint(r.buf)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// addrs reads a member list: a count, then that many addresses. It
// returns nil for a list that is empty, implausibly long or cut short.
func (r *ctrlReader) addrs() []event.Addr {
	n := int(r.uvarint())
	if r.bad || n <= 0 || n > 1<<12 {
		return nil
	}
	list := make([]event.Addr, n)
	for i := range list {
		list[i] = event.Addr(r.uvarint())
	}
	if r.bad {
		return nil
	}
	return list
}
