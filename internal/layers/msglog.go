package layers

import (
	"encoding/binary"
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/transport"
)

// msgLog is the retention buffer of one numbered channel — one origin's
// casts, one peer's sends: the messages from a moving base upward, each
// held as its encoded image (transport.Image) in the logArena of the
// layer state that owns the log.
//
// It is what the reliability layers buffer in instead of a map of
// deep-cloned boxes. Keeping a message is one memmove into the arena's
// open slab and one index entry; nothing in the log or the arena is a
// pointer the collector must trace (slabs are bytes, the index is
// integers); and releasing everything below a sequence number advances
// the base and visits the entries it releases, each giving its slab back
// one record. A message is decoded again (transport.FromImage) only when
// somebody asks for it: a NAK, a retransmission sweep, a gap that filled.
//
// The index is kept right-sized: it grows by a quarter, and a trim that
// leaves the backing array more than twice the live width (plus
// logIdxSlack) copies the live entries into a fitted one, so a log holds
// what stability has not released yet and not its peak.
//
// The zero value is an empty log, sixteen bytes of it: a member holds
// one or two per peer, most of which never carry a message, so
// everything past the base waits for the first put.
type msgLog struct {
	// base is the sequence number of the first live index entry.
	// Everything below it is gone and cannot be put again.
	base int64
	*logBody
}

// logBody is a log's index. ents is the index's backing array from its
// start and ents[head:] the live part: ents[head+seq-base] locates seq's
// record, and zero means absent (a sequence number not yet seen, between
// base and the highest put). Trimming advances head; the entries below
// it are dead.
type logBody struct {
	ents []logRef
	head int
}

// logRef locates a record: the number of its slab (as counted by the
// arena's made) and the record's offset in the slab plus one, so that
// the zero logRef is free to mean absent. The slab number is kept whole:
// a log that is never trimmed — a stack without a stability layer — keeps
// as many slabs alive as it was given big messages, and a reference must
// still find its own.
//
// A by-reference record (logRefBit set; no offset is that large) fills
// its slab, which is the image's run itself, and off holds what the
// record's flag byte and lengths would: ApplMsg (logRefAppl), the header
// count and the header segment's length.
type logRef struct {
	slab uint32
	off  uint32
}

// logArena is the storage of every msgLog of one layer state: mnak's
// per-origin logs share one, pt2pt's per-peer logs one, seqno's one.
// Small records of all the logs are appended, in put order, to one open
// slab of logSlabBytes, so a record costs its own bytes and not a
// per-log slab's slack.
//
// Slabs are written once and never reused: each counts its live records,
// and one that counts none is dropped, unless it is the open slab (it
// stays open, appended to past its dead records, and is dropped when it
// is closed). So an image handed out by get — and the payload of an
// event decoded from it — stays valid for as long as anything references
// it, even after every log trimmed past it. A record lives in one slab,
// so a log that is never trimmed pins at most one slab per record it
// holds.
//
// A record too big for a shared slab (need > logSlabBytes) gets a slab of
// its own, cut to size, rather than outlive its stability by its
// neighbours'. It is not copied when it needs no copy: an owned image
// (transport.Image.Borrowed unset) whose header bytes and payload are one
// contiguous run — a message off the wire, everything above this layer
// being a suffix of the sub-packet — becomes that slab by reference.
// Nobody rewrites arrival bytes, so the reference is as immutable as a
// slab.
//
// The zero value is an empty arena.
type logArena struct {
	// slabs holds the storage, oldest first: slabs[i] is slab number
	// made-len(slabs)+i. A dropped slab (buf nil) keeps its place until
	// every older one is dropped too. Only differences of slab numbers
	// are used, so made may wrap.
	slabs []logSlab
	made  uint32
	// open is the number of the slab small records go to, when opened.
	open   uint32
	opened bool
	// msgs counts the live records; bytes the live slabs' bytes and the
	// index arrays of every log that draws from the arena.
	msgs, bytes int64
}

// logSlab is one append-only run of records, live of them not trimmed.
//
// A record is one flag byte (header count, high bit = ApplMsg), the
// uvarint lengths of the image's two segments, and the segments — or, by
// reference, the segments alone.
type logSlab struct {
	buf  []byte
	live int
}

const (
	// logSlabBytes is the size of a shared slab; a record that would not
	// fit in an empty one gets a slab of its own.
	logSlabBytes = 2 << 10
	// A log's index grows by a quarter plus logIdxRoom entries, and a
	// trim compacts it when the backing array is more than twice the
	// live width plus logIdxSlack entries.
	logIdxRoom  = 8
	logIdxSlack = 32
	logRefSize  = 8
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

// put retains img as sequence number seq, in a's storage. It reports
// false, and keeps nothing, when seq is below the base, already present
// (the first copy wins), or implausibly far ahead.
func (l *msgLog) put(a *logArena, seq int64, img transport.Image) bool {
	i := seq - l.base
	switch {
	case i < 0, i >= l.width()+logMaxAhead:
		return false
	case i < l.width() && l.ents[l.head+int(i)] != (logRef{}):
		return false
	}
	if l.logBody == nil {
		l.logBody = new(logBody)
	}
	l.reach(a, int(i)+1)
	l.ents[l.head+int(i)] = a.store(img)
	return true
}

// reach widens the index to n live entries: into the backing array's
// free tail, or down over its dead entries when that leaves a quarter to
// spare, or else into a new array a quarter wider.
func (b *logBody) reach(a *logArena, n int) {
	w := len(b.ents) - b.head
	if n <= w {
		return
	}
	if b.head+n > cap(b.ents) {
		if idxRoom(n) <= cap(b.ents) {
			copy(b.ents, b.ents[b.head:])
			b.ents, b.head = b.ents[:w], 0
		} else {
			b.realloc(a, w, idxRoom(n))
		}
	}
	old := len(b.ents)
	b.ents = b.ents[:b.head+n]
	clear(b.ents[old:])
}

// idxRoom is the capacity an index of n live entries is given.
func idxRoom(n int) int { return n + n/4 + logIdxRoom }

// realloc moves the w live index entries into a new array of capacity c.
func (b *logBody) realloc(a *logArena, w, c int) {
	ents := make([]logRef, w, c)
	copy(ents, b.ents[b.head:])
	a.bytes += int64(c-cap(b.ents)) * logRefSize
	b.ents, b.head = ents, 0
}

// store appends img's record to the arena and returns where it is.
func (a *logArena) store(img transport.Image) logRef {
	need := 1 + 2*binary.MaxVarintLen32 + len(img.Hdrs) + len(img.Payload)
	if need > logSlabBytes {
		if run, ok := arrivalRun(img); ok {
			ref := logRef{slab: a.add(run), off: logRefBit | uint32(img.NHdrs)<<logRefNHdrs | uint32(len(img.Hdrs))}
			if img.ApplMsg {
				ref.off |= logRefAppl
			}
			a.at(ref.slab).live++
			a.msgs++
			return ref
		}
		return a.record(a.add(make([]byte, 0, need)), img)
	}
	if a.room() < need {
		if a.opened && a.at(a.open).live == 0 {
			a.drop(a.at(a.open))
		}
		a.open, a.opened = a.add(make([]byte, 0, logSlabBytes)), true
	}
	return a.record(a.open, img)
}

// room is what the open slab has left, none before the first.
func (a *logArena) room() int {
	if !a.opened {
		return 0
	}
	s := a.at(a.open)
	return cap(s.buf) - len(s.buf)
}

// record appends img's record to slab n.
func (a *logArena) record(n uint32, img transport.Image) logRef {
	s := a.at(n)
	ref := logRef{slab: n, off: uint32(len(s.buf) + 1)}
	flag := img.NHdrs
	if img.ApplMsg {
		flag |= logApplBit
	}
	s.buf = append(s.buf, flag)
	s.buf = binary.AppendUvarint(s.buf, uint64(len(img.Hdrs)))
	s.buf = binary.AppendUvarint(s.buf, uint64(len(img.Payload)))
	s.buf = append(s.buf, img.Hdrs...)
	s.buf = append(s.buf, img.Payload...)
	s.live++
	a.msgs++
	return ref
}

// add appends buf to the arena as a new slab and returns its number.
func (a *logArena) add(buf []byte) uint32 {
	a.slabs = append(a.slabs, logSlab{buf: buf})
	a.made++
	a.bytes += int64(cap(buf))
	return a.made - 1
}

// at is slab number n.
func (a *logArena) at(n uint32) *logSlab {
	return &a.slabs[n-(a.made-uint32(len(a.slabs)))]
}

// release gives slab n back one record, and drops it if that was its
// last and the slab is not open.
func (a *logArena) release(n uint32) {
	s := a.at(n)
	s.live--
	a.msgs--
	if s.live == 0 && (!a.opened || n != a.open) {
		a.drop(s)
	}
}

// drop lets a slab with no live record go, and unlists the dropped slabs
// at the old end.
func (a *logArena) drop(s *logSlab) {
	a.bytes -= int64(cap(s.buf))
	s.buf = nil
	for len(a.slabs) > 0 && a.slabs[0].buf == nil {
		a.slabs = a.slabs[1:]
	}
}

// arrivalRun returns an owned image's two segments as the one run of
// bytes they occupy, when the payload begins where the header bytes end
// in the same backing array and the facts the run does not carry fit a
// by-reference logRef.
func arrivalRun(img transport.Image) ([]byte, bool) {
	h, n := img.Hdrs, len(img.Hdrs)+len(img.Payload)
	if img.Borrowed || len(img.Payload) == 0 || cap(h) < n ||
		len(h) > logRefHdrs || img.NHdrs > logRefMaxNHdrs {
		return nil, false
	}
	if &h[:len(h)+1][len(h)] != &img.Payload[0] {
		return nil, false
	}
	return h[:n:n], true
}

// get returns seq's image, or false when the log does not hold it. The
// image aliases a's slab (see logArena for how long that lasts).
func (l *msgLog) get(a *logArena, seq int64) (transport.Image, bool) {
	i := seq - l.base
	if i < 0 || i >= l.width() || l.ents[l.head+int(i)] == (logRef{}) {
		return transport.Image{}, false
	}
	ref := l.ents[l.head+int(i)]
	if ref.off&logRefBit != 0 {
		run, h := a.at(ref.slab).buf, int(ref.off&logRefHdrs)
		return transport.Image{
			Hdrs: run[:h:h], Payload: run[h:],
			NHdrs: uint8(ref.off >> logRefNHdrs & logRefMaxNHdrs), ApplMsg: ref.off&logRefAppl != 0,
		}, true
	}
	rec := a.at(ref.slab).buf[ref.off-1:]
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

// width is the length of the live index, none before the first put.
func (l *msgLog) width() int64 {
	if l.logBody == nil {
		return 0
	}
	return int64(len(l.ents) - l.head)
}

// trimBelow releases every message below seq back to a and moves the
// base there (also past the highest message held: what is trimmed stays
// refused). It visits each entry it releases, and compacts the index
// when the backing array has become more than twice what is live.
func (l *msgLog) trimBelow(a *logArena, seq int64) {
	if seq <= l.base {
		return
	}
	if b := l.logBody; b != nil {
		k := int(min(seq-l.base, l.width()))
		for _, ref := range b.ents[b.head : b.head+k] {
			if ref != (logRef{}) {
				a.release(ref.slab)
			}
		}
		b.head += k
		switch w := len(b.ents) - b.head; {
		case cap(b.ents) > 2*w+logIdxSlack:
			b.realloc(a, w, idxRoom(w))
		case w == 0:
			b.ents, b.head = b.ents[:0], 0
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
