package layers

import (
	"fmt"
	"slices"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// membershipState implements a coordinator-driven group membership
// protocol providing virtual synchrony: when members are suspected (or
// leave), the coordinator runs a flush — members stop sending, report
// their reliability layer's receive vectors, and once every surviving
// member holds the same set of casts the coordinator announces the new
// view. The group runtime reacts to the resulting EView by rebuilding the
// protocol stack for the new view, which is how Ensemble switches
// protocol stacks on the fly ([25], §4.1.3).
//
// Simplification versus Ensemble's full GMP (documented in DESIGN.md):
// the coordinator is the lowest unsuspected rank rather than an elected
// one.
//
// Every view change travels a k-ary tree (k = treeFanout) laid over the
// survivor ranks: the coordinator is the root, flush rounds fan out
// along tree edges, and receive vectors come back *aggregated* — each
// interior node folds its children's reports into one, so every member
// sends and receives O(k) membership messages per round and the root
// decides from k aggregates instead of N-1 vectors (coordinator-direct
// dissemination is this tree with k ≥ N, and its O(N) messages of O(N)
// size into one member are the scaling wall the tree removes). View
// announcements travel the same tree. The agreement condition is
// all-pairs equality of the survivors' receive vectors; equality is
// transitive, so pairwise parent/child comparison up the tree decides it.
//
// The tree's shape is derived from the *coordinator's* exclusion list,
// carried in every down-message — never from a node's own suspicion
// books, which may transiently differ. Local books still gate
// authority: the implied root (lowest rank the message does not
// exclude) must be an authorized coordinator by the receiver's own
// books, and the direct sender must be the receiver's computed tree
// parent.
//
// Partition merges announce the adopted view with a cast (HandleDn,
// EMergeRequest): a heal is a discontinuity between two trees, and no
// single tree spans both sides.
type membershipState struct {
	view *event.View

	// suspects marks members excluded from the next view.
	suspects []bool
	// leaving marks members that asked to leave gracefully.
	leaving []bool

	// blocked is set between the flush announcement and the new view;
	// application traffic queues in pending meanwhile.
	blocked bool
	pending []PendingApp

	// flushing marks an in-progress view change; appNotified marks that
	// the application has seen its EBlock.
	flushing    bool
	appNotified bool
	proposedSeq int64
	// round numbers flush attempts: reactive traffic during a flush
	// changes the vectors, so the coordinator re-runs rounds until a
	// consistent sample appears, ignoring stale replies.
	round int64
	// agg is the current flush round's fold.
	agg aggRound
	// seenSeq/seenRound dedup down-tree flush rounds.
	seenSeq, seenRound int64
	// viewSent dedups tree view announcements (sent or installed).
	viewSent int64
}

// treeFanout is the arity of the dissemination tree.
const treeFanout = 4

// treeSpan returns the half-open range of positions holding the
// children of position pos (≥ 0) in a treeFanout-ary tree laid out
// heap-style over n positions: k*pos+1 .. k*pos+k, cut at n.
func treeSpan(pos, n int) (lo, hi int) {
	lo = min(treeFanout*pos+1, n)
	return lo, min(lo+treeFanout, n)
}

// treeParent returns the position of the parent of position pos (> 0).
func treeParent(pos int) int { return (pos - 1) / treeFanout }

// aggRound is one flush round's tree state: the round's survivor set
// (as dictated by the coordinator), this node's position in it, and
// the partially folded subtree report.
type aggRound struct {
	surv     []int  // survivor ranks, ascending; tree position i holds surv[i]
	children []int  // this node's direct-child ranks
	parent   int    // this node's parent rank; -1 at the root
	from     []bool // which children already reported, indexed by rank
	ownIn    bool
	own      []int64 // this node's receive vector
	max      []int64 // element-wise max over the subtree so far
	count    int     // members folded into the subtree so far (incl. self)
	mismatch bool
}

// PendingApp is an application message buffered during a view change,
// re-submitted by the group runtime once the new view's stack is up.
type PendingApp struct {
	// IsCast distinguishes multicasts from point-to-point sends.
	IsCast bool
	// Dst is the destination address for sends (addresses are stable
	// across views; ranks are not).
	Dst event.Addr
	// Payload is the application payload.
	Payload []byte
}

// PendingDrainer is implemented by membership states; the group runtime
// drains buffered application traffic after installing a new view.
type PendingDrainer interface {
	DrainPending() []PendingApp
}

// membership header variants.
type (
	// membPass tags data passing through.
	membPass struct{}
	// membFlushTree carries a flush round for view ViewSeq down the
	// dissemination tree. Excluded is the coordinator's exclusion list;
	// every receiver derives the identical tree from it. Frontier is the
	// coordinator's element-wise best knowledge of every member's send
	// count, from the previous round's replies: receivers hand it to the
	// reliability layer so trailing losses — which no further traffic
	// would ever reveal during a flush — are NAKed and repaired, letting
	// the vectors converge.
	membFlushTree struct {
		ViewSeq  int64
		Round    int64
		Frontier []int64
		Excluded []int32
	}
	// membFlushAgg reports a whole subtree's flush replies up one tree
	// edge: how many members it folds (Count), a representative receive
	// vector (the sender's own), the element-wise max over the subtree
	// (the next round's repair frontier), and whether any pair within
	// the subtree disagreed.
	membFlushAgg struct {
		ViewSeq  int64
		Round    int64
		Count    int32
		Mismatch bool
		Vector   []int64
		Max      []int64
	}
	// membView announces the agreed next view.
	membView struct {
		ViewSeq int64
		Members []event.Addr
	}
	// membLeave announces a graceful departure.
	membLeave struct{ Rank int32 }
)

func (membPass) Layer() string      { return Membership }
func (membPass) WireID() byte       { return idMembership }
func (membFlushTree) Layer() string { return Membership }
func (membFlushTree) WireID() byte  { return idMembership }
func (membFlushAgg) Layer() string  { return Membership }
func (membFlushAgg) WireID() byte   { return idMembership }
func (membView) Layer() string      { return Membership }
func (membView) WireID() byte       { return idMembership }
func (membLeave) Layer() string     { return Membership }
func (membLeave) WireID() byte      { return idMembership }

func (membPass) HdrString() string { return "membership:Pass" }
func (h membFlushTree) HdrString() string {
	return fmt.Sprintf("membership:FlushTree(%d.%d)", h.ViewSeq, h.Round)
}
func (h membFlushAgg) HdrString() string {
	return fmt.Sprintf("membership:FlushAgg(%d.%d,n=%d)", h.ViewSeq, h.Round, h.Count)
}
func (h membView) HdrString() string {
	return fmt.Sprintf("membership:View(%d,%v)", h.ViewSeq, h.Members)
}
func (h membLeave) HdrString() string { return fmt.Sprintf("membership:Leave(%d)", h.Rank) }

// Wire tags. 1 and 2 belonged to the coordinator-direct flush and its
// acknowledgement; they are retired, not reused, and decode as bad wire.
const (
	membTagPass      byte = 0
	membTagView      byte = 3
	membTagLeave     byte = 4
	membTagFlushAgg  byte = 5
	membTagFlushTree byte = 6
)

// membHdrs declares the variants. Leaves and merge views are cast;
// everything the tree carries is a send.
var membHdrs = []ir.HdrSpec{
	bareHdr[membPass]("Pass", membTagPass, onData, ir.PassedUp),
	membCtrl("View", membTagView, []string{"view_seq"}, onData,
		func(v membView, dst []int64) []int64 { return append(dst, v.ViewSeq) }),
	membCtrl("Leave", membTagLeave, []string{"rank"}, onCast,
		func(l membLeave, dst []int64) []int64 { return append(dst, int64(l.Rank)) }),
	membCtrl("FlushAgg", membTagFlushAgg, []string{"view_seq", "round"}, onSend,
		func(a membFlushAgg, dst []int64) []int64 { return append(dst, a.ViewSeq, a.Round) }),
	membCtrl("FlushTree", membTagFlushTree, []string{"view_seq", "round"}, onSend,
		func(f membFlushTree, dst []int64) []int64 { return append(dst, f.ViewSeq, f.Round) }),
}

// membCtrl is the spec of a control variant: consumed, recognized (so
// ReadHdr can classify it for fallback dispatch, and a probe for another
// variant misses without allocating) but never IR-constructed.
func membCtrl[H event.Header](variant string, tag byte, fields []string, on []event.Type, read func(H, []int64) []int64) ir.HdrSpec {
	return ir.HdrSpec{
		Variant: variant, Tag: int64(tag), Fields: fields, On: on, Fate: ir.Consumed,
		Make: func([]int64) event.Header { panic("membership: control headers are not IR-constructible") },
		Read: readAs(read),
	}
}

// putInts appends the length-prefixed varint list the control headers
// carry (vectors, frontiers, rank and address lists).
func putInts[T ~int32 | ~int64](w *transport.Writer, vs []T) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Varint(int64(v))
	}
}

// getInts reads what putInts wrote, refusing lengths no view can have.
func getInts[T ~int32 | ~int64](r *transport.Reader, what string) ([]T, error) {
	n := r.Uvarint()
	if n > 1<<16 {
		return nil, transport.ErrBadWire("membership %s length %d", what, n)
	}
	vs := make([]T, n)
	for i := range vs {
		vs[i] = T(r.Varint())
	}
	return vs, nil
}

func init() {
	layer.Register(Membership, func(cfg layer.Config) layer.State {
		n := cfg.View.N()
		return &membershipState{
			view:     cfg.View,
			suspects: make([]bool, n),
			leaving:  make([]bool, n),
		}
	})
	// The control variants carry lists, so the codec is written out.
	c := transport.SpecCodec(Membership, idMembership, membHdrs)
	c.Encode = func(h event.Header, w *transport.Writer) {
		switch h := h.(type) {
		case membPass:
			w.Byte(membTagPass)
		case membView:
			w.Byte(membTagView)
			w.Varint(h.ViewSeq)
			putInts(w, h.Members)
		case membLeave:
			w.Byte(membTagLeave)
			w.Varint(int64(h.Rank))
		case membFlushAgg:
			w.Byte(membTagFlushAgg)
			w.Varint(h.ViewSeq)
			w.Varint(h.Round)
			w.Varint(int64(h.Count))
			w.Bool(h.Mismatch)
			putInts(w, h.Vector)
			putInts(w, h.Max)
		case membFlushTree:
			w.Byte(membTagFlushTree)
			w.Varint(h.ViewSeq)
			w.Varint(h.Round)
			putInts(w, h.Frontier)
			putInts(w, h.Excluded)
		default:
			panic(fmt.Sprintf("membership: unknown header %T", h))
		}
	}
	c.Decode = func(r *transport.Reader) (event.Header, error) {
		var err error
		switch tag := r.Byte(); tag {
		case membTagPass:
			return membPass{}, nil
		case membTagView:
			h := membView{ViewSeq: r.Varint()}
			if h.Members, err = getInts[event.Addr](r, "member list"); err != nil {
				return nil, err
			}
			return h, nil
		case membTagLeave:
			return membLeave{Rank: int32(r.Varint())}, nil
		case membTagFlushAgg:
			h := membFlushAgg{ViewSeq: r.Varint(), Round: r.Varint(), Count: int32(r.Varint()), Mismatch: r.Bool()}
			if h.Vector, err = getInts[int64](r, "agg vector"); err != nil {
				return nil, err
			}
			if h.Max, err = getInts[int64](r, "agg max"); err != nil {
				return nil, err
			}
			return h, nil
		case membTagFlushTree:
			h := membFlushTree{ViewSeq: r.Varint(), Round: r.Varint()}
			if h.Frontier, err = getInts[int64](r, "frontier"); err != nil {
				return nil, err
			}
			if h.Excluded, err = getInts[int32](r, "excluded list"); err != nil {
				return nil, err
			}
			return h, nil
		default:
			return nil, transport.ErrBadWire("membership tag %d", tag)
		}
	}
	transport.RegisterCodec(c)
}

func (s *membershipState) Name() string { return Membership }

// DrainPending implements PendingDrainer.
func (s *membershipState) DrainPending() []PendingApp {
	p := s.pending
	s.pending = nil
	return p
}

// coord returns the lowest rank that is neither suspected nor leaving.
func (s *membershipState) coord() int {
	for r := 0; r < s.view.N(); r++ {
		if !s.excluded(r) {
			return r
		}
	}
	return 0
}

func (s *membershipState) iAmCoord() bool { return s.coord() == s.view.Rank }

// authorized reports whether rank from could legitimately be driving a
// view change: every rank below it must already be excluded in our own
// books (equivalently, from is no higher than our current coordinator).
// Without this check a partitioned member that has wrongly suspected
// everyone else — and therefore considers *itself* the coordinator —
// can poison survivors: its flush and singleton-view install leave
// under the old epoch, which every member still shares, and any
// survivor whose copy of the partitioned member's cast stream has no
// loss gap would accept the install, read its own absence as an
// expulsion, and restart as a singleton. The epoch tag cannot close
// this hole (the traffic is genuinely old-epoch); coordinator authority
// is the membership-level complement to it. Regression:
// TestPartitionedMemberCannotPoisonSurvivors.
func (s *membershipState) authorized(from int) bool { return from <= s.coord() }

// excluded reports whether rank r leaves the next view.
func (s *membershipState) excluded(r int) bool { return s.suspects[r] || s.leaving[r] }

func (s *membershipState) HandleDn(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast, event.ESend:
		// Only application traffic is held during a flush: protocol
		// traffic from the layers above (order announcements) must keep
		// flowing or the flush itself cannot complete.
		if s.blocked && ev.ApplMsg {
			p := PendingApp{IsCast: ev.Type == event.ECast, Payload: ev.OwnPayload()}
			if !p.IsCast {
				p.Dst = s.view.Members[ev.Peer]
			}
			s.pending = append(s.pending, p)
			event.Free(ev)
			return
		}
		ev.Msg.Push(membPass{})
		snk.PassDn(ev)
	case event.ELeave:
		lv := event.Alloc()
		lv.Dir, lv.Type = event.Dn, event.ECast
		lv.Msg.Push(membLeave{Rank: int32(s.view.Rank)})
		snk.PassDn(lv)
		event.Free(ev)
	case event.EMergeRequest:
		// Partition merge: the group runtime computed a merged view and
		// asks this partition to adopt it. Announcing it with a cast
		// installs it reliably at every member of this partition
		// (including us, via the local reflection). The adopting
		// partition does not run a flush: a partition heal is already a
		// discontinuity, and in-flight messages of the old epoch are
		// dropped at the switch (documented simplification).
		if ev.View != nil {
			v := event.Alloc()
			v.Dir, v.Type = event.Dn, event.ECast
			v.Msg.Push(membView{ViewSeq: ev.View.ID.Seq, Members: ev.View.Members})
			snk.PassDn(v)
		}
		event.Free(ev)
	default:
		snk.PassDn(ev)
	}
}

func (s *membershipState) HandleUp(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast, event.ESend:
		// Leaves and merge views are cast; everything the tree carries is
		// a send (membHdrs). The kind picks the View handler; a variant
		// on the other kind, which no arrival carries, is dropped.
		cast := ev.Type == event.ECast
		switch h := ev.Msg.Pop().(type) {
		case membPass:
			snk.PassUp(ev)
			return
		case membLeave:
			if cast {
				s.handleExclusion([]int{int(h.Rank)}, true, snk)
			}
		case membView:
			if !cast {
				s.handleViewSend(ev.Peer, h, snk)
			} else if s.authorized(ev.Peer) {
				s.handleView(h, snk)
			}
		case membFlushTree:
			if !cast {
				s.handleFlushTree(ev.Peer, h, snk)
			}
		case membFlushAgg:
			if !cast {
				s.handleFlushAgg(ev.Peer, h, snk)
			}
		}
		event.Free(ev)
	case event.ESuspect:
		// Announce upward for application visibility, then react.
		ranks := append([]int(nil), ev.Ranks...)
		snk.PassUp(ev)
		s.handleExclusion(ranks, false, snk)
	case event.EBlockOk:
		s.handleBlockOk(ev, snk)
	case event.ETimer:
		// Re-drive an unfinished flush: lost flush rounds or unequal
		// vectors converge through the reliability layer's repair.
		if s.flushing && s.iAmCoord() {
			s.castFlush(snk)
		}
		snk.PassUp(ev)
	default:
		snk.PassUp(ev)
	}
}

// handleExclusion records members leaving the next view and, on the
// coordinator, starts a view change.
func (s *membershipState) handleExclusion(ranks []int, leave bool, snk layer.Sink) {
	changed := false
	for _, r := range ranks {
		if r < 0 || r >= s.view.N() || s.excluded(r) {
			continue
		}
		if leave {
			s.leaving[r] = true
		} else {
			s.suspects[r] = true
		}
		changed = true
	}
	if !changed {
		return
	}
	if s.iAmCoord() {
		s.flushing = true
		s.proposedSeq = s.view.ID.Seq + 1
		s.castFlush(snk)
	}
}

// startAggRound resets the fold for a fresh round over the given
// survivor set. It must run before the EBlock goes down: the EBlockOk
// reply arrives synchronously and lands in this round's fold.
func (s *membershipState) startAggRound(surv []int) {
	s.agg = aggRound{surv: surv, parent: -1, from: make([]bool, s.view.N())}
	pos := slices.Index(surv, s.view.Rank)
	if pos < 0 {
		return
	}
	lo, hi := treeSpan(pos, len(surv))
	s.agg.children = surv[lo:hi]
	if pos > 0 {
		s.agg.parent = surv[treeParent(pos)]
	}
}

// sendFlush hands one flush round to each of this node's children.
func (s *membershipState) sendFlush(h membFlushTree, snk layer.Sink) {
	for _, c := range s.agg.children {
		f := event.Alloc()
		f.Dir, f.Type, f.Peer = event.Dn, event.ESend, c
		f.Msg.Push(membFlushTree{ViewSeq: h.ViewSeq, Round: h.Round,
			Frontier: append([]int64(nil), h.Frontier...),
			Excluded: append([]int32(nil), h.Excluded...)})
		snk.PassDn(f)
	}
}

// castFlush starts a fresh flush round at the root: stale replies are
// recognized by their round number. The tree is laid over the ranks
// this node's own books do not exclude; the frontier is the
// element-wise max the previous round's aggregates reported.
func (s *membershipState) castFlush(snk layer.Sink) {
	h := membFlushTree{ViewSeq: s.proposedSeq, Round: s.round + 1, Frontier: s.agg.max}
	var surv []int
	for r := 0; r < s.view.N(); r++ {
		if s.excluded(r) {
			h.Excluded = append(h.Excluded, int32(r))
		} else {
			surv = append(surv, r)
		}
	}
	s.round = h.Round
	s.startAggRound(surv)
	s.sendFlush(h, snk)
	s.applyFlush(h.Frontier, snk)
}

// handleFlushTree is a relay (or leaf) receiving a flush round from its
// tree parent: validate, forward to the subtree, then run the local
// flush.
func (s *membershipState) handleFlushTree(from int, h membFlushTree, snk layer.Sink) {
	// Drop stale or duplicate rounds: each re-drive bumps the round.
	if h.ViewSeq < s.seenSeq || (h.ViewSeq == s.seenSeq && h.Round <= s.seenRound) {
		return
	}
	exc := make([]bool, s.view.N())
	for _, r := range h.Excluded {
		if int(r) < 0 || int(r) >= s.view.N() {
			return
		}
		exc[r] = true
	}
	if exc[s.view.Rank] {
		return // not part of this tree
	}
	var surv []int
	for r := 0; r < s.view.N(); r++ {
		if !exc[r] {
			surv = append(surv, r)
		}
	}
	// The implied root must be an authorized coordinator by our own
	// books, and the direct sender must be our parent in the tree the
	// message defines.
	pos := slices.Index(surv, s.view.Rank)
	if !s.authorized(surv[0]) || pos == 0 || from != surv[treeParent(pos)] {
		return
	}
	s.seenSeq, s.seenRound = h.ViewSeq, h.Round
	s.flushing = true
	s.proposedSeq, s.round = h.ViewSeq, h.Round
	s.startAggRound(surv)
	s.sendFlush(h, snk)
	s.applyFlush(h.Frontier, snk)
}

// applyFlush is the local half of a flush round: block the application,
// hand the repair frontier to the reliability layer, and harvest our
// receive vector through the EBlock/EBlockOk round trip. The EBlockOk
// reply arrives synchronously within the same scheduling run, so the
// round recorded by the caller is the round the reply belongs to.
func (s *membershipState) applyFlush(frontier []int64, snk layer.Sink) {
	s.blocked = true
	if len(frontier) == s.view.N() {
		// Let the reliability layer repair any gap the group has already
		// seen past.
		ack := event.Alloc()
		ack.Dir, ack.Type = event.Dn, event.EAck
		ack.Stability = append([]int64(nil), frontier...)
		snk.PassDn(ack)
	}
	if !s.appNotified {
		s.appNotified = true
		blockUp := event.Alloc()
		blockUp.Dir, blockUp.Type = event.Up, event.EBlock
		snk.PassUp(blockUp)
	}
	blockDn := event.Alloc()
	blockDn.Dir, blockDn.Type = event.Dn, event.EBlock
	snk.PassDn(blockDn)
}

// handleBlockOk folds our own receive vector into the round.
func (s *membershipState) handleBlockOk(ev *event.Event, snk layer.Sink) {
	vec := append([]int64(nil), ev.Stability...)
	event.Free(ev)
	if !s.flushing || s.agg.from == nil || s.agg.ownIn {
		return
	}
	s.agg.ownIn = true
	s.agg.own = vec
	s.agg.count++
	s.aggMergeMax(vec)
	s.tryCompleteAgg(snk)
}

// handleFlushAgg folds a direct child's subtree report into the round.
func (s *membershipState) handleFlushAgg(from int, h membFlushAgg, snk layer.Sink) {
	if !s.flushing || h.ViewSeq != s.proposedSeq || h.Round != s.round || s.agg.from == nil {
		return
	}
	if !slices.Contains(s.agg.children, from) || s.agg.from[from] {
		return
	}
	s.agg.from[from] = true
	s.agg.count += int(h.Count)
	// The child's representative vector must equal ours on every origin;
	// a node without a vector of its own cannot vouch for its subtree.
	agree := s.agg.own != nil && slices.Equal(s.agg.own, h.Vector)
	s.agg.mismatch = s.agg.mismatch || h.Mismatch || !agree
	s.aggMergeMax(h.Max)
	s.tryCompleteAgg(snk)
}

func (s *membershipState) aggMergeMax(vec []int64) {
	if s.agg.max == nil {
		s.agg.max = make([]int64, len(vec))
	}
	for i, v := range vec {
		if i < len(s.agg.max) && v > s.agg.max[i] {
			s.agg.max[i] = v
		}
	}
}

// tryCompleteAgg fires once this node's own vector and all its direct
// children's reports are in: interior nodes pass the fold to their
// parent; the root installs the view if the whole survivor set agreed,
// and otherwise waits for its timer to re-drive a fresh round.
//
// Agreement is required on every origin, including excluded ones. An
// excluded member's casts may have reached some survivors and not
// others; installing the view anyway would let some members deliver
// casts the rest never see (and, with an ordering layer on top, stall
// the laggards behind a sequence number that can no longer be filled).
// The frontier in the next flush round re-NAKs such gaps, and mnak's
// kept-receive buffers let any survivor serve them on the unreachable
// origin's behalf.
func (s *membershipState) tryCompleteAgg(snk layer.Sink) {
	if !s.agg.ownIn {
		return
	}
	for _, c := range s.agg.children {
		if !s.agg.from[c] {
			return
		}
	}
	if s.agg.parent >= 0 {
		ok := event.Alloc()
		ok.Dir, ok.Type, ok.Peer = event.Dn, event.ESend, s.agg.parent
		ok.Msg.Push(membFlushAgg{ViewSeq: s.proposedSeq, Round: s.round,
			Count: int32(s.agg.count), Mismatch: s.agg.mismatch,
			Vector: append([]int64(nil), s.agg.own...),
			Max:    append([]int64(nil), s.agg.max...)})
		snk.PassDn(ok)
		return
	}
	// A root with no survivors is itself leaving, last of its view:
	// nobody is left to agree with, and the empty view it announces
	// tells every member, this one included, to exit.
	if len(s.agg.surv) > 0 && (s.agg.mismatch || s.agg.count != len(s.agg.surv)) {
		return
	}
	s.announceView(snk)
}

// announceView builds the agreed next view from the current exclusion
// books and disseminates it from the root: down the tree laid over the
// NEW member list (the new view's rank order is the survivor order, so
// flush tree and view tree coincide), directly to each excluded member
// (expelled members and graceful leavers must still learn the outcome),
// and finally installs it locally. The relayed sends leave under the
// old epoch — the stack rebuild that EView triggers is deferred to the
// end of the scheduling run.
func (s *membershipState) announceView(snk layer.Sink) {
	h := membView{ViewSeq: s.proposedSeq}
	for r := 0; r < s.view.N(); r++ {
		if !s.excluded(r) {
			h.Members = append(h.Members, s.view.Members[r])
		}
	}
	s.relayView(h, snk)
	for r := 0; r < s.view.N(); r++ {
		if s.excluded(r) && r != s.view.Rank {
			s.sendView(r, h, snk)
		}
	}
	s.handleView(h, snk)
}

func (s *membershipState) sendView(peer int, h membView, snk layer.Sink) {
	v := event.Alloc()
	v.Dir, v.Type, v.Peer = event.Dn, event.ESend, peer
	v.Msg.Push(membView{ViewSeq: h.ViewSeq, Members: append([]event.Addr(nil), h.Members...)})
	snk.PassDn(v)
}

// relayView marks the view handled and sends it to this node's direct
// children in the tree over the new member list.
func (s *membershipState) relayView(h membView, snk layer.Sink) {
	s.viewSent = h.ViewSeq
	pos := slices.Index(h.Members, s.view.Members[s.view.Rank])
	if pos < 0 {
		return
	}
	lo, hi := treeSpan(pos, len(h.Members))
	for _, a := range h.Members[lo:hi] {
		if r := s.view.RankOf(a); r >= 0 {
			s.sendView(r, h, snk)
		}
	}
}

// handleViewSend is a member receiving a view announcement over a tree
// edge (or, for excluded members, directly from the root): validate
// the sender against the tree the member list defines, relay to the
// subtree, then install.
func (s *membershipState) handleViewSend(from int, h membView, snk layer.Sink) {
	if h.ViewSeq <= s.viewSent {
		return
	}
	// The root heads its own member list, except in the empty view the
	// last coordinator out sends to everyone directly.
	rootRank := from
	if len(h.Members) > 0 {
		rootRank = s.view.RankOf(h.Members[0])
	}
	if rootRank < 0 || !s.authorized(rootRank) {
		return
	}
	switch pos := slices.Index(h.Members, s.view.Members[s.view.Rank]); {
	case pos < 0:
		// We are excluded from the new view; only the root says so.
		if from != rootRank {
			return
		}
		s.viewSent = h.ViewSeq
	case pos == 0 || from != s.view.RankOf(h.Members[treeParent(pos)]):
		return
	default:
		s.relayView(h, snk)
	}
	s.handleView(h, snk)
}

// handleView installs the announced view: the group runtime rebuilds the
// stack in response to EView (or tears it down on EExit if we were
// excluded).
func (s *membershipState) handleView(h membView, snk layer.Sink) {
	myAddr := s.view.Members[s.view.Rank]
	var nv *event.View
	if rank := slices.Index(h.Members, myAddr); rank >= 0 {
		nv = &event.View{
			ID:      event.ViewID{Coord: h.Members[0], Seq: h.ViewSeq},
			Group:   s.view.Group,
			Members: h.Members,
			Rank:    rank,
		}
	} else if s.leaving[s.view.Rank] {
		// Our own graceful leave: this stack is done.
		ex := event.Alloc()
		ex.Dir, ex.Type = event.Up, event.EExit
		snk.PassUp(ex)
		return
	} else {
		// Excluded involuntarily (a false suspicion, or a partition seen
		// from the other side): continue as a singleton group and let
		// the merge protocol reunite us, exactly as if the network had
		// partitioned us away.
		nv = &event.View{
			ID:      event.ViewID{Coord: myAddr, Seq: h.ViewSeq + 1},
			Group:   s.view.Group,
			Members: []event.Addr{myAddr},
		}
	}
	s.flushing = false
	up := event.Alloc()
	up.Dir, up.Type, up.View = event.Up, event.EView, nv
	snk.PassUp(up)
}
