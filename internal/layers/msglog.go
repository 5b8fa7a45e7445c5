package layers

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/transport"
)

// msgLog is the retention buffer of one numbered channel — one origin's
// casts, one peer's sends: the messages from a moving base upward, each
// held as its encoded image (transport.Image) in an append-only slab.
//
// It is what the reliability layers buffer in instead of a map of
// deep-cloned boxes. Keeping a message is one memmove into the current
// slab and one index entry; nothing in the log is a pointer the
// collector must trace (slabs are bytes, the index is integers); and
// releasing everything below a sequence number advances the base and
// drops whole slabs, without visiting the entries. A message is decoded
// again (transport.FromImage) only when somebody asks for it: a NAK, a
// retransmission sweep, a gap that filled.
//
// Slabs are written once and never reused, so an image handed out by get
// — and the payload of an event decoded from it — stays valid for as
// long as anything references it, even after the log trimmed past it.
//
// The zero value is an empty log, sixteen bytes of it: a member holds
// one or two per peer, most of which never carry a message, so
// everything past the base waits for the first put.
type msgLog struct {
	// base is the sequence number of idx[0]. Everything below it is gone
	// and cannot be put again.
	base int64
	*logBody
}

type logBody struct {
	// idx[seq-base] locates seq's record; zero means absent (a sequence
	// number not yet seen, between base and the highest put).
	idx []logRef
	// slabs holds the records, oldest slab first. made counts the slabs
	// ever allocated, which numbers them: slabs[len-1] is number made-1.
	// Only differences of slab numbers are used, so made may wrap.
	slabs []logSlab
	made  uint32
}

// logRef locates a record: the number of its slab (as counted by made)
// and the record's offset in the slab plus one, so that the zero logRef
// is free to mean absent. The slab number is kept whole: a log that is
// never trimmed — a stack without a stability layer — holds as many
// slabs as it was given messages, and a reference must still find its
// own.
type logRef struct {
	slab uint32
	off  uint32
}

// logSlab is one append-only run of records. last is the highest
// sequence number stored in it: the slab can go once the base passes it.
//
// A record is one flag byte (header count, high bit = ApplMsg), the
// uvarint lengths of the image's two segments, and the segments.
type logSlab struct {
	buf  []byte
	last int64
}

const (
	// A slab is sized for logSlabRecs records like the one that opens it:
	// a log of small casts allocates once per sixteen of them and wastes
	// less than that much space, and a small control message between
	// large ones does not pin a large slab. Slabs are released whole, so
	// past logMaxSlab a record gets a slab of its own, cut to size, rather
	// than outlive its stability by its neighbours'.
	logMinSlab  = 512
	logMaxSlab  = 32 << 10
	logSlabRecs = 16
	// logMaxAhead bounds how far past the highest sequence number seen a
	// put may land: the index is dense, and a corrupt or hostile sequence
	// number must not be able to size it.
	logMaxAhead = 1 << 16

	logApplBit = 0x80
)

// put retains img as sequence number seq. It reports false, and keeps
// nothing, when seq is below the base, already present (the first copy
// wins), or implausibly far ahead.
func (l *msgLog) put(seq int64, img transport.Image) bool {
	i := seq - l.base
	switch {
	case i < 0, i >= l.width()+logMaxAhead:
		return false
	case i < l.width() && l.idx[i] != (logRef{}):
		return false
	}
	if l.logBody == nil {
		l.logBody = new(logBody)
	}
	need := 1 + 2*binary.MaxVarintLen32 + len(img.Hdrs) + len(img.Payload)
	if n := len(l.slabs); n == 0 || cap(l.slabs[n-1].buf)-len(l.slabs[n-1].buf) < need {
		size := max(need*logSlabRecs, logMinSlab)
		if size > logMaxSlab {
			size = need
		}
		l.slabs = append(l.slabs, logSlab{buf: make([]byte, 0, size), last: seq})
		l.made++
	}
	s := &l.slabs[len(l.slabs)-1]
	ref := logRef{slab: l.made - 1, off: uint32(len(s.buf) + 1)}
	flag := img.NHdrs
	if img.ApplMsg {
		flag |= logApplBit
	}
	s.buf = append(s.buf, flag)
	s.buf = binary.AppendUvarint(s.buf, uint64(len(img.Hdrs)))
	s.buf = binary.AppendUvarint(s.buf, uint64(len(img.Payload)))
	s.buf = append(s.buf, img.Hdrs...)
	s.buf = append(s.buf, img.Payload...)
	s.last = max(s.last, seq)
	// The index grows by a quarter, not append's doubling: there is one
	// per origin per member, most of them a few hundred entries long.
	if grow := int(i) + 1 - len(l.idx); grow > cap(l.idx)-len(l.idx) {
		l.idx = slices.Grow(l.idx, max(grow, len(l.idx)/4+8))
	}
	for int64(len(l.idx)) <= i {
		l.idx = append(l.idx, logRef{})
	}
	l.idx[i] = ref
	return true
}

// get returns seq's image, or false when the log does not hold it. The
// image aliases the slab (see the type comment for how long that lasts).
func (l *msgLog) get(seq int64) (transport.Image, bool) {
	i := seq - l.base
	if i < 0 || i >= l.width() || l.idx[i] == (logRef{}) {
		return transport.Image{}, false
	}
	ref := l.idx[i]
	oldest := l.made - uint32(len(l.slabs))
	rec := l.slabs[ref.slab-oldest].buf[ref.off-1:]
	nh, k := binary.Uvarint(rec[1:])
	np, k2 := binary.Uvarint(rec[1+k:])
	h := 1 + k + k2
	p := h + int(nh)
	return transport.Image{
		Hdrs: rec[h:p:p], Payload: rec[p : p+int(np) : p+int(np)],
		NHdrs: rec[0] &^ logApplBit, ApplMsg: rec[0]&logApplBit != 0,
	}, true
}

// span is the range of sequence numbers the log could hold anything at:
// [lo, hi). Callers serving a requested range clamp it to this first.
func (l *msgLog) span() (lo, hi int64) { return l.base, l.base + l.width() }

// width is the length of the index, none before the first put.
func (l *msgLog) width() int64 {
	if l.logBody == nil {
		return 0
	}
	return int64(len(l.idx))
}

// trimBelow releases every message below seq and moves the base there
// (also past the highest message held: what is trimmed stays refused).
func (l *msgLog) trimBelow(seq int64) {
	if seq <= l.base {
		return
	}
	if l.logBody != nil {
		l.idx = l.idx[min(seq-l.base, int64(len(l.idx))):]
		for len(l.slabs) > 0 && l.slabs[0].last < seq {
			l.slabs[0] = logSlab{}
			l.slabs = l.slabs[1:]
		}
	}
	l.base = seq
}

// imageOf is transport.ImageOf for a layer about to buffer ev; a header
// without a codec is the same configuration bug it is at the bottom of
// the stack, where Marshal would have met it.
func imageOf(ev *event.Event, w *transport.Writer) transport.Image {
	img, err := transport.ImageOf(ev, w)
	if err != nil {
		panic(fmt.Sprintf("layers: buffering a message: %v", err))
	}
	return img
}

// effectImage is the image a bypass effect buffers: the optimizer hands
// it the header stack already encoded.
func effectImage(ctx ir.EffectCtx) transport.Image {
	return transport.Image{Hdrs: ctx.Hdrs, Payload: ctx.Payload, NHdrs: uint8(ctx.NHdrs), ApplMsg: ctx.ApplMsg}
}

// fromImage is transport.FromImage for an image this layer put itself:
// it was encoded here or was the tail of a wire that had just decoded,
// so failing to decode it again is corruption, not input.
func fromImage(img transport.Image, ev *event.Event) {
	if err := transport.FromImage(img, ev); err != nil {
		panic(fmt.Sprintf("layers: decoding a buffered message: %v", err))
	}
}
