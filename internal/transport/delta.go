package transport

// The sub grammar: how sub-packets ride inside a frame (§4.1.3 taken one
// step further). Header compression already folds each packet's constant
// fields into a small stack identifier, so a common-case wire image is
//
//	[epoch prefix uvarints] 0xC0 id(2) sender(uvarint) seqno(varint) rest
//
// Consecutive sub-packets on one chain go to the same destination in the
// same epoch from the same sender with near-sequential seqnos — the
// header bytes repeat almost verbatim. Each sub is therefore encoded
// against its predecessor on the chain (the previous sub in the frame,
// or for a frame's first sub the previous frame's last sub — see
// frame.go): equal epoch/stack-id/sender are elided entirely and the
// seqno becomes a (usually one-byte) varint delta.
//
//	subs      repeated {
//	    flag  byte
//	    flag == 0x00 (full):   uvarint length, length bytes (a complete
//	                           wire image)
//	    flag & 0x01  (delta):  optional fields selected by the flag bits
//	                           (0x02 epoch: prefix uvarints; 0x04 stack
//	                           id: 2 bytes; 0x08 sender: uvarint), then
//	                           varint seqno delta; if 0x20 is set, a
//	                           uvarint shared-suffix length s; uvarint
//	                           rest length, rest bytes — the remaining
//	                           varying fields and payload, verbatim,
//	                           followed (when 0x20) by the previous
//	                           sub's last s bytes
//	    flag == 0x10 (prefix): uvarint shared-prefix length n, uvarint
//	                           rest length, rest bytes — the sub is the
//	                           previous sub's first n bytes followed by
//	                           rest, verbatim; with n = 0 the sub is rest
//	                           alone
//	    flag == 0x30 (prefix+suffix): uvarint n, uvarint s, uvarint mid
//	                           length, mid bytes — the sub is the
//	                           previous sub's first n bytes, mid, then
//	                           the previous sub's last s bytes
//	    flag == 0x50 (run):    uvarint n, uvarint m, m mid bytes, uvarint
//	                           k, uvarint r, r rest bytes — the sub is
//	                           the previous sub's first n bytes, mid, the
//	                           previous sub's bytes [n+m, n+m+k), then
//	                           rest: a changed field, then the unchanged
//	                           run after it
//	}
//
// The 0x10 prefix form is the shape-agnostic fallback for wires the
// field-level delta cannot parse (full-format images, control traffic):
// consecutive acknowledgements or gossip wires of the same kind repeat
// most of their header bytes even though the coder has no model of their
// fields, so eliding the shared byte prefix against the previous sub
// still recovers most of the redundancy.
//
// A prefix sub with n = 0 and no suffix is how a frame-sized wire rides
// (frame.go): its bytes are the wire, verbatim, so the walker surfaces it
// in place like a full sub instead of rebuilding it. It is not a full
// sub because a full first sub makes its frame self-contained, and the
// receive link adopts such a frame across a sequence gap, dropping a
// reordered predecessor still in flight. A prefix sub keeps the frame
// dependent on its predecessor, so the frame waits for it.
//
// The 0x20 suffix bit (both forms) recovers the redundancy *after* the
// varying bytes when a wire's tail repeats its predecessor's — trailing
// header fields, the high bytes of little-endian stamps. A fresh payload
// at the end of the wire breaks that, and then the bytes worth eliding
// sit between a changed mid-header field (a seqno) and the payload: the
// constant headers below it. The run form (0x50) elides exactly that —
// up to maxRunMid changed bytes after the shared prefix, then the run of
// at least minRunLen bytes that lines up with the predecessor's at the
// same offset. The encoder (appendPrefixSub) writes whichever of the
// prefix, prefix+suffix and run forms is shortest, preferring prefix and
// prefix+suffix on a tie, so no sub is longer than without the run form.
//
// Any sub can fall back to full encoding — a wire that is not a
// compressed image (CCP miss, control traffic) and shares no useful
// prefix with its predecessor, a seqno delta that would overflow, or the
// first sub of a fresh generation or anchor frame — so the format
// degrades per sub, never per frame. Malformed input is never dropped
// silently and never panics: a truncated sub, a delta with no base,
// unknown flag bits, a shared prefix longer than the previous sub, a run
// sub's field or run reaching past it, or an overflowing seqno delta
// surfaces the remaining bytes (from the offending sub's flag byte on) as
// one final garbage sub-packet, which downstream decoders count as a
// stray packet.

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// EpochPrefixUvarints is the number of uvarints core.Member prefixes to
// every data wire (the view sequence number and the membership digest).
// Substrates that unpack member traffic build their FrameWalker with it
// so the delta coder can treat the prefix as one elidable epoch field.
const EpochPrefixUvarints = 2

// maxPrefix bounds the epoch prefix a delta coder can track.
const maxPrefix = 2

// Delta sub-packet flag bits (see the file comment for the grammar).
const (
	subFull     = 0x00 // complete wire image follows
	subIsDelta  = 0x01 // delta-encoded against the previous sub
	deltaEpoch  = 0x02 // epoch prefix differs: explicit uvarints follow
	deltaStack  = 0x04 // stack id differs: explicit 2 bytes follow
	deltaSender = 0x08 // sender differs: explicit uvarint follows
	subPrefix   = 0x10 // shared byte prefix of the previous sub, then rest
	deltaSuffix = 0x20 // shared byte suffix of the previous sub elided
	deltaKnown  = subIsDelta | deltaEpoch | deltaStack | deltaSender | deltaSuffix
	// subPrefixSuffix is the prefix form with a shared suffix too: the sub
	// is prev[:n] + mid + prev[len(prev)-s:].
	subPrefixSuffix = subPrefix | deltaSuffix
	// subRun is the prefix form with a changed field and an unchanged run
	// after it: the sub is prev[:n] + mid + prev[n+m:n+m+k] + rest.
	subRun = subPrefix | 0x40
)

// minPrefixLen is the shortest shared prefix worth eliding: below four
// bytes the flag byte and the two uvarint lengths eat the saving.
const minPrefixLen = 4

// minSuffixLen is the shortest shared suffix worth eliding: the elision
// costs one extra uvarint, so a one-byte suffix is a wash.
const minSuffixLen = 2

// maxRunMid bounds the changed field a run sub carries before its
// unchanged run, which bounds the encoder's search: a seqno or a count is
// a varint of at most a few bytes, and a wider change rarely lines up
// with an equal run behind it.
const maxRunMid = 8

// minRunLen is the shortest unchanged run worth a run sub: the run costs
// the mid and run lengths over a prefix sub, so below four bytes it
// rarely pays.
const minRunLen = 4

// commonPrefixLen is the length of the longest shared byte prefix,
// compared eight bytes at a time.
func commonPrefixLen(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// commonSuffixLen is the length of the longest shared byte suffix.
func commonSuffixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[len(a)-1-i] == b[len(b)-1-i] {
		i++
	}
	return i
}

// subMeta is a parsed compressed-wire header, kept by value so the delta
// coder can re-encode a sub canonically (or compute the next delta base)
// without holding on to the previous sub's bytes.
type subMeta struct {
	ok      bool
	prefix  [maxPrefix]uint64
	id      uint16
	sender  uint64
	seq     int64
	restOff int // offset of the bytes after the first varying varint
}

// uvarintLen is the length of v's canonical uvarint encoding.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// parseSub parses wire as an epoch-prefixed compressed image. A wire
// that does not have that shape (full-format images, control traffic,
// arbitrary test bytes) reports !ok and is carried as a prefix or full
// sub; the coder never needs to understand it. The "seqno" is simply
// the first varying varint after the sender — the delta transform is
// shape-based and symmetric, so round-tripping is exact whatever the
// field means. Non-minimal varint encodings also report !ok: the
// decoder reconstructs elided fields canonically, so a wire that spells
// a value the long way would not come back byte-exact through the
// field delta (the canonical encoders never emit one, but arbitrary
// bytes can).
func parseSub(wire []byte, nPrefix int) (m subMeta) {
	off := 0
	for i := 0; i < nPrefix; i++ {
		v, k := binary.Uvarint(wire[off:])
		if k <= 0 || k != uvarintLen(v) {
			return
		}
		m.prefix[i] = v
		off += k
	}
	if len(wire) < off+3 || wire[off] != WireCompressed {
		return
	}
	m.id = uint16(wire[off+1]) | uint16(wire[off+2])<<8
	off += 3
	s, k := binary.Uvarint(wire[off:])
	if k <= 0 || k != uvarintLen(s) {
		return
	}
	m.sender = s
	off += k
	q, k := binary.Varint(wire[off:])
	if k <= 0 {
		return
	}
	zz := uint64(q) << 1
	if q < 0 {
		zz = ^zz
	}
	if k != uvarintLen(zz) {
		return
	}
	m.seq = q
	off += k
	m.restOff = off
	m.ok = true
	return
}

// appendDeltaSub encodes wire (parsed as cur) against base into buf;
// prev is the previous sub's full bytes, the base for shared-suffix
// elision of the rest. It reports false — leaving buf untouched — when
// the seqno delta would overflow; the caller then falls back to a full
// sub.
func appendDeltaSub(buf []byte, wire []byte, cur, base subMeta, nPrefix int, prev []byte) ([]byte, bool) {
	d := cur.seq - base.seq
	if (cur.seq >= base.seq) != (d >= 0) {
		return buf, false
	}
	rest := wire[cur.restOff:]
	s := commonSuffixLen(rest, prev)
	if s < minSuffixLen {
		s = 0
	}
	flag := byte(subIsDelta)
	if cur.prefix != base.prefix {
		flag |= deltaEpoch
	}
	if cur.id != base.id {
		flag |= deltaStack
	}
	if cur.sender != base.sender {
		flag |= deltaSender
	}
	if s > 0 {
		flag |= deltaSuffix
	}
	buf = append(buf, flag)
	if flag&deltaEpoch != 0 {
		for i := 0; i < nPrefix; i++ {
			buf = binary.AppendUvarint(buf, cur.prefix[i])
		}
	}
	if flag&deltaStack != 0 {
		buf = append(buf, byte(cur.id), byte(cur.id>>8))
	}
	if flag&deltaSender != 0 {
		buf = binary.AppendUvarint(buf, cur.sender)
	}
	buf = binary.AppendVarint(buf, d)
	if s > 0 {
		buf = binary.AppendUvarint(buf, uint64(s))
	}
	mid := rest[:len(rest)-s]
	buf = binary.AppendUvarint(buf, uint64(len(mid)))
	return append(buf, mid...), true
}

// appendPrefixSub encodes wire against prev, its predecessor on the
// chain, with which it shares its first n bytes (n >= minPrefixLen), as
// the shortest of the prefix, prefix+suffix and run forms. The prefix
// form elides a suffix when at least minSuffixLen bytes match; the run
// form is written only when it is strictly shorter than that. It reports
// whether the sub went out as a run.
func appendPrefixSub(buf, wire, prev []byte, n int) ([]byte, bool) {
	s := commonSuffixLen(wire[n:], prev[n:])
	if s < minSuffixLen {
		s = 0
	}
	mid := len(wire) - n - s
	size := 1 + uvarintLen(uint64(n)) + uvarintLen(uint64(mid)) + mid
	if s > 0 {
		size += uvarintLen(uint64(s))
	}
	if m, k, rsize := bestRun(wire, prev, n); rsize < size {
		buf = append(buf, subRun)
		buf = binary.AppendUvarint(buf, uint64(n))
		buf = binary.AppendUvarint(buf, uint64(m))
		buf = append(buf, wire[n:n+m]...)
		buf = binary.AppendUvarint(buf, uint64(k))
		rest := wire[n+m+k:]
		buf = binary.AppendUvarint(buf, uint64(len(rest)))
		return append(buf, rest...), true
	}
	if s > 0 {
		buf = append(buf, subPrefixSuffix)
		buf = binary.AppendUvarint(buf, uint64(n))
		buf = binary.AppendUvarint(buf, uint64(s))
	} else {
		buf = append(buf, subPrefix)
		buf = binary.AppendUvarint(buf, uint64(n))
	}
	buf = binary.AppendUvarint(buf, uint64(mid))
	return append(buf, wire[n:n+mid]...), false
}

// bestRun finds the shortest run sub for wire against prev after their
// shared n-byte prefix: a changed field wire[n:n+m] with m <= maxRunMid,
// then the k >= minRunLen bytes that equal prev's at the same offsets. It
// returns the sub's encoded size, or math.MaxInt when no split qualifies;
// on a tie the shorter field wins. A split only pays where the field ends
// on a differing byte (extending the field over an equal byte shortens
// the run by as much), so the candidates are the starts of equal runs
// within the window, and one pass compares each byte pair at most once.
func bestRun(wire, prev []byte, n int) (m, k, size int) {
	size = math.MaxInt
	lim := min(len(wire), len(prev))
	// wire[n] != prev[n]: n is the shared prefix's length.
	for p := n + 1; p <= n+maxRunMid && p < lim; {
		if wire[p] != prev[p] {
			p++
			continue
		}
		run := commonPrefixLen(wire[p:lim], prev[p:lim])
		if run >= minRunLen {
			cm, r := p-n, len(wire)-p-run
			cs := 1 + uvarintLen(uint64(n)) + uvarintLen(uint64(cm)) + cm + uvarintLen(uint64(run)) + uvarintLen(uint64(r)) + r
			if cs < size {
				m, k, size = cm, run, cs
			}
		}
		p += run + 1 // wire[p+run] differs, or p+run == lim
	}
	return m, k, size
}

// maxOutHint caps what outBound asks for. Shared prefixes and suffixes
// may overlap, so a crafted frame can describe subs that double in
// length from one to the next; the hint stays small whatever the frame
// claims, and a walk that really needs more grows its buffer by append.
const maxOutHint = 1 << 20

// outBound scans the sub grammar of data[off:] without decoding it and
// returns an upper bound on the bytes walkSubs will reconstruct: for
// each delta, prefix or run sub its explicit bytes, the bytes it takes
// from its predecessor, and for a delta sub the longest header the elided
// fields can spell. Full subs and n = 0, suffix-free prefix subs are
// surfaced in place and count nothing.
// The scan stops where walkSubs would surface garbage. prevLen is the
// seeded previous sub's length.
func (w *FrameWalker) outBound(data []byte, off, prevLen int) int {
	hdrMax := (w.nPrefix+2)*binary.MaxVarintLen64 + 3
	total := 0
	for off < len(data) && total <= maxOutHint {
		flag := data[off]
		off++
		size := 0 // this sub's reconstructed length, less its explicit bytes
		switch {
		case flag == subFull:
		case flag == subRun:
			// n, then the mid, then the run taken from the predecessor; the
			// rest is read below like every form's explicit bytes.
			n, k := binary.Uvarint(data[off:])
			if k <= 0 || n > uint64(prevLen) {
				return total
			}
			off += k
			m, k := binary.Uvarint(data[off:])
			if k <= 0 || m > uint64(len(data)-off-k) {
				return total
			}
			off += k + int(m)
			run, k := binary.Uvarint(data[off:])
			if k <= 0 || n+m > uint64(prevLen) || run > uint64(prevLen)-n-m {
				return total
			}
			off += k
			size = int(n + m + run)
		case flag == subPrefix || flag == subPrefixSuffix:
			n, k := binary.Uvarint(data[off:])
			if k <= 0 || n > uint64(prevLen) {
				return total
			}
			off += k
			size = int(n)
		case flag&subIsDelta != 0 && flag&^byte(deltaKnown) == 0:
			if flag&deltaEpoch != 0 {
				for i := 0; i < w.nPrefix; i++ {
					_, k := binary.Uvarint(data[off:])
					if k <= 0 {
						return total
					}
					off += k
				}
			}
			if flag&deltaStack != 0 {
				if off += 2; off > len(data) {
					return total
				}
			}
			if flag&deltaSender != 0 {
				_, k := binary.Uvarint(data[off:])
				if k <= 0 {
					return total
				}
				off += k
			}
			_, k := binary.Uvarint(data[off:]) // the seqno delta
			if k <= 0 {
				return total
			}
			off += k
			size = hdrMax
		default:
			return total
		}
		if flag&deltaSuffix != 0 {
			sfx, k := binary.Uvarint(data[off:])
			if k <= 0 || sfx > uint64(prevLen) {
				return total
			}
			off += k
			size += int(sfx)
		}
		n, k := binary.Uvarint(data[off:])
		if k <= 0 {
			return total
		}
		off += k
		end := off + int(n)
		if end < off || end > len(data) {
			return total
		}
		off = end
		prevLen = size + int(n)
		if size > 0 || flag == subRun {
			total += prevLen
		}
	}
	return min(total, maxOutHint)
}

// walkSubs decodes the sub grammar from data[off:]. The caller
// pre-seeds w.base and prev (zero/nil for a self-contained frame, the
// link mirror for cross-frame continuity). It returns the subs surfaced
// (a trailing garbage sub included), the last surfaced sub's bytes (the
// seeded prev if none), whether that sub was surfaced in place (a slice
// of data), and whether the decode ran clean — !clean means the tail
// from the offending sub's flag byte on went to fn as garbage.
func (w *FrameWalker) walkSubs(data []byte, off int, prev []byte, fn func(sub []byte)) (subs int, last []byte, inPlace, clean bool) {
	// prev is the previous surfaced sub's bytes — the base for subPrefix
	// reconstruction. It may point into data (subs surfaced in place),
	// into out (reconstructed subs), or wherever the mirror keeps the
	// seed (its own storage, or an earlier frame it references). out
	// is never truncated mid-walk; in stable mode it is one buffer sized
	// for the whole frame up front, so prev and every surfaced sub stay
	// where they are. (Should a walk outgrow its buffer — scratch mode
	// warming up, a frame past maxOutHint — append moves the tail and
	// leaves the earlier backing array readable, which is as good.)
	var out []byte
	if !w.stable {
		out = w.scratch[:0]
	} else if n := w.outBound(data, off, len(prev)); n > 0 {
		out = make([]byte, 0, n)
	}
	// unparsed is the last surfaced sub while w.base is still its
	// predecessor's: only a delta sub and the walk's end read w.base, so a
	// run of full, prefix and run subs parses its last sub alone.
	var unparsed []byte
	parseBase := func() {
		if unparsed != nil {
			w.base = parseSub(unparsed, w.nPrefix)
			unparsed = nil
		}
	}
	for off < len(data) {
		subStart := off
		garbage := func() (int, []byte, bool, bool) {
			parseBase()
			fn(data[subStart:])
			if !w.stable {
				w.scratch = out[:0]
			}
			return subs + 1, prev, false, false
		}
		flag := data[off]
		off++
		if flag == subFull {
			n, k := binary.Uvarint(data[off:])
			if k <= 0 {
				return garbage()
			}
			off += k
			end := off + int(n)
			if end < off || end > len(data) {
				return garbage()
			}
			sub := data[off:end:end]
			unparsed = sub
			prev, inPlace = sub, true
			fn(sub)
			subs++
			off = end
			continue
		}
		if flag == subRun {
			// Run sub: one copy of the previous sub's first n+m+k bytes
			// with the changed field patched over [n, n+m), then the rest.
			// No base, or a field and run reaching past the previous sub,
			// is undecodable.
			n, k := binary.Uvarint(data[off:])
			if k <= 0 || prev == nil || n > uint64(len(prev)) {
				return garbage()
			}
			off += k
			m, k := binary.Uvarint(data[off:])
			if k <= 0 || m > uint64(len(data)-off-k) {
				return garbage()
			}
			off += k
			mid := data[off : off+int(m)]
			off += int(m)
			run, k := binary.Uvarint(data[off:])
			if k <= 0 || n+m > uint64(len(prev)) || run > uint64(len(prev))-n-m {
				return garbage()
			}
			off += k
			r, k := binary.Uvarint(data[off:])
			if k <= 0 {
				return garbage()
			}
			off += k
			end := off + int(r)
			if end < off || end > len(data) {
				return garbage()
			}
			start := len(out)
			out = append(out, prev[:n+m+run]...)
			copy(out[start+int(n):], mid)
			out = append(out, data[off:end]...)
			sub := out[start:len(out):len(out)]
			unparsed = sub
			prev, inPlace = sub, false
			fn(sub)
			subs++
			off = end
			continue
		}
		if flag == subPrefix || flag == subPrefixSuffix {
			// Shared-prefix sub: the previous sub's first n bytes plus an
			// explicit rest — and, in the prefix+suffix form, the previous
			// sub's last s bytes after it. No base (first in frame with
			// nothing seeded) or an elided run longer than the previous
			// sub is undecodable.
			n, k := binary.Uvarint(data[off:])
			if k <= 0 || prev == nil || n > uint64(len(prev)) {
				return garbage()
			}
			off += k
			var sfx uint64
			if flag == subPrefixSuffix {
				sfx, k = binary.Uvarint(data[off:])
				if k <= 0 || sfx > uint64(len(prev)) {
					return garbage()
				}
				off += k
			}
			m, k := binary.Uvarint(data[off:])
			if k <= 0 {
				return garbage()
			}
			off += k
			end := off + int(m)
			if end < off || end > len(data) {
				return garbage()
			}
			var sub []byte
			if n == 0 && sfx == 0 {
				// Nothing shared: the sub is its explicit bytes, surfaced
				// in place like a full one.
				sub, inPlace = data[off:end:end], true
			} else {
				start := len(out)
				out = append(out, prev[:n]...)
				out = append(out, data[off:end]...)
				if sfx > 0 {
					out = append(out, prev[uint64(len(prev))-sfx:]...)
				}
				sub, inPlace = out[start:len(out):len(out)], false
			}
			unparsed = sub
			prev = sub
			fn(sub)
			subs++
			off = end
			continue
		}
		parseBase()
		if flag&subIsDelta == 0 || flag&^byte(deltaKnown) != 0 || !w.base.ok {
			// Unknown flag bits, or a delta sub with nothing to be a
			// delta of (first in frame with no seeded base, or after an
			// unparseable full sub): the tail is undecodable from here on.
			return garbage()
		}
		cur := w.base
		if flag&deltaEpoch != 0 {
			for i := 0; i < w.nPrefix; i++ {
				v, k := binary.Uvarint(data[off:])
				if k <= 0 {
					return garbage()
				}
				cur.prefix[i] = v
				off += k
			}
		}
		if flag&deltaStack != 0 {
			if off+2 > len(data) {
				return garbage()
			}
			cur.id = uint16(data[off]) | uint16(data[off+1])<<8
			off += 2
		}
		if flag&deltaSender != 0 {
			v, k := binary.Uvarint(data[off:])
			if k <= 0 {
				return garbage()
			}
			cur.sender = v
			off += k
		}
		d, k := binary.Varint(data[off:])
		if k <= 0 {
			return garbage()
		}
		off += k
		seq := w.base.seq + d
		if (seq >= w.base.seq) != (d >= 0) {
			return garbage()
		}
		cur.seq = seq
		var sfx uint64
		if flag&deltaSuffix != 0 {
			// Shared-suffix elision: the rest's last sfx bytes are the
			// previous sub's tail. No previous sub, or a suffix longer
			// than it, is undecodable.
			sfx, k = binary.Uvarint(data[off:])
			if k <= 0 || prev == nil || sfx > uint64(len(prev)) {
				return garbage()
			}
			off += k
		}
		n, k := binary.Uvarint(data[off:])
		if k <= 0 {
			return garbage()
		}
		off += k
		end := off + int(n)
		if end < off || end > len(data) {
			return garbage()
		}
		// Reconstruct the canonical wire image at the tail of the
		// per-walk buffer; in scratch mode that buffer is reused across
		// walks.
		start := len(out)
		for i := 0; i < w.nPrefix; i++ {
			out = binary.AppendUvarint(out, cur.prefix[i])
		}
		out = append(out, WireCompressed, byte(cur.id), byte(cur.id>>8))
		out = binary.AppendUvarint(out, cur.sender)
		out = binary.AppendVarint(out, cur.seq)
		cur.restOff = len(out) - start
		out = append(out, data[off:end]...)
		if sfx > 0 {
			out = append(out, prev[uint64(len(prev))-sfx:]...)
		}
		w.base = cur
		sub := out[start:len(out):len(out)]
		prev, inPlace = sub, false
		fn(sub)
		subs++
		off = end
	}
	if !w.stable {
		w.scratch = out[:0]
	}
	parseBase()
	return subs, prev, inPlace, true
}
