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
// A record large enough to get a slab of its own is not copied when it
// needs no copy: an owned image (transport.Image.Borrowed unset) whose
// header bytes and payload are one contiguous run — a message off the
// wire, everything above this layer being a suffix of the sub-packet —
// becomes that slab by reference. Nobody rewrites arrival bytes, so the
// reference is as immutable as a slab.
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
//
// A by-reference record (logRefBit set; no offset is that large) fills
// its slab, which is the image's run itself, and off holds what the
// record's flag byte and lengths would: ApplMsg (logRefAppl), the header
// count and the header segment's length.
type logRef struct {
	slab uint32
	off  uint32
}

// logSlab is one append-only run of records. last is the highest
// sequence number stored in it: the slab can go once the base passes it.
//
// A record is one flag byte (header count, high bit = ApplMsg), the
// uvarint lengths of the image's two segments, and the segments — or, by
// reference, the segments alone.
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

	// The by-reference logRef.off, high bit first: the marker, ApplMsg, a
	// 7-bit header count and a 23-bit header length.
	logRefBit      = 1 << 31
	logRefAppl     = 1 << 30
	logRefNHdrs    = 23
	logRefMaxNHdrs = 1<<7 - 1
	logRefHdrs     = 1<<logRefNHdrs - 1
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
	var ref logRef
	need := 1 + 2*binary.MaxVarintLen32 + len(img.Hdrs) + len(img.Payload)
	if run, ok := arrivalRun(img, need); ok {
		l.slabs = append(l.slabs, logSlab{buf: run, last: seq})
		l.made++
		ref = logRef{slab: l.made - 1, off: logRefBit | uint32(img.NHdrs)<<logRefNHdrs | uint32(len(img.Hdrs))}
		if img.ApplMsg {
			ref.off |= logRefAppl
		}
	} else {
		if n := len(l.slabs); n == 0 || cap(l.slabs[n-1].buf)-len(l.slabs[n-1].buf) < need {
			size := max(need*logSlabRecs, logMinSlab)
			if size > logMaxSlab {
				size = need
			}
			l.slabs = append(l.slabs, logSlab{buf: make([]byte, 0, size), last: seq})
			l.made++
		}
		s := &l.slabs[len(l.slabs)-1]
		ref = logRef{slab: l.made - 1, off: uint32(len(s.buf) + 1)}
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
	}
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

// arrivalRun returns an owned image's two segments as the one run of
// bytes they occupy, when its record of need bytes would get a slab of
// its own, the payload begins where the header bytes end in the same
// backing array, and the facts the run does not carry fit a
// by-reference logRef.
func arrivalRun(img transport.Image, need int) ([]byte, bool) {
	h, n := img.Hdrs, len(img.Hdrs)+len(img.Payload)
	if need*logSlabRecs <= logMaxSlab || img.Borrowed || len(img.Payload) == 0 || cap(h) < n ||
		len(h) > logRefHdrs || img.NHdrs > logRefMaxNHdrs {
		return nil, false
	}
	if &h[:len(h)+1][len(h)] != &img.Payload[0] {
		return nil, false
	}
	return h[:n:n], true
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
	if ref.off&logRefBit != 0 {
		run, h := l.slabs[ref.slab-oldest].buf, int(ref.off&logRefHdrs)
		return transport.Image{
			Hdrs: run[:h:h], Payload: run[h:],
			NHdrs: uint8(ref.off >> logRefNHdrs & logRefMaxNHdrs), ApplMsg: ref.off&logRefAppl != 0,
		}, true
	}
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
// it the header stack already encoded, in its scratch frame — so the
// image is borrowed, whatever the payload's provenance.
func effectImage(ctx ir.EffectCtx) transport.Image {
	return transport.Image{Hdrs: ctx.Hdrs, Payload: ctx.Payload, NHdrs: uint8(ctx.NHdrs), ApplMsg: ctx.ApplMsg, Borrowed: true}
}

// fromImage is transport.FromImage for an image this layer put itself:
// it was encoded here or was the tail of a wire that had just decoded,
// so failing to decode it again is corruption, not input.
func fromImage(img transport.Image, ev *event.Event) {
	if err := transport.FromImage(img, ev); err != nil {
		panic(fmt.Sprintf("layers: decoding a buffered message: %v", err))
	}
}
