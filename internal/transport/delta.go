package transport

// The sub grammar: how sub-packets ride inside a frame (§4.1.3 taken one
// step further). Header compression already folds each packet's constant
// fields into a small stack identifier; consecutive sub-packets on one
// chain then repeat most of what is left almost verbatim — the epoch
// prefix, the image's magic, identifier and sender, the constant headers
// after a changed seqno. Each sub is therefore encoded against its
// predecessor on the chain (the previous sub in the frame, or for a
// frame's first sub the previous frame's last sub — see frame.go) by the
// bytes the two share. The coder has no model of a wire's fields: a
// wire is opaque bytes, whichever engine or codec wrote it.
//
//	subs      repeated {
//	    flag  byte
//	    flag == 0x00 (full):   uvarint length, length bytes (a complete
//	                           wire image)
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
// A prefix sub with n = 0 and no suffix is how a frame-sized wire rides
// (frame.go): its bytes are the wire, verbatim, so the walker surfaces it
// in place like a full sub instead of rebuilding it. It is not a full
// sub because a full first sub makes its frame self-contained, and the
// receive link adopts such a frame across a sequence gap, dropping a
// reordered predecessor still in flight. A prefix sub keeps the frame
// dependent on its predecessor, so the frame waits for it.
//
// The suffix form recovers the redundancy *after* the varying bytes when
// a wire's tail repeats its predecessor's — trailing header fields, the
// high bytes of little-endian stamps. A fresh payload at the end of the
// wire breaks that, and then the bytes worth eliding sit between a
// changed mid-header field (a seqno) and the payload: the constant
// headers below it. The run form elides exactly that — up to maxRunMid
// changed bytes after the shared prefix, then the run of at least
// minRunLen bytes that lines up with the predecessor's at the same
// offset. The encoder (appendPrefixSub) writes whichever of the prefix,
// prefix+suffix and run forms is shortest, preferring prefix and
// prefix+suffix on a tie, so no sub is longer than without the run form.
//
// A wire that shares fewer than minPrefixLen leading bytes with its
// predecessor rides full, and so does the first sub of a fresh generation
// or anchor frame — so the format degrades per sub, never per frame.
// Malformed input is never dropped silently and never panics: a
// truncated sub, a dependent sub with no predecessor, an unknown flag
// byte, a shared prefix or suffix longer than the previous sub, a run
// sub's field or run reaching past it, or a sub that would take the
// frame's rebuilt bytes past maxRebuilt surfaces the remaining bytes
// (from the offending sub's flag byte on) as one final garbage
// sub-packet, which downstream decoders count as a stray packet.

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Sub flag bytes (see the file comment for the grammar); every other
// value is unknown.
const (
	subFull         = 0x00 // complete wire image follows
	subPrefix       = 0x10 // shared byte prefix of the previous sub, then rest
	subPrefixSuffix = 0x30 // prev[:n] + mid + prev[len(prev)-s:]
	subRun          = 0x50 // prev[:n] + mid + prev[n+m:n+m+k] + rest
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

// maxRebuilt caps the bytes one frame's walk may rebuild. Shared
// prefixes and suffixes may overlap, so a crafted frame can describe
// subs that double in length from one to the next; a few hundred bytes
// of them would otherwise ask for terabytes. An encoder never comes near
// the cap: only wires shorter than its frame budget are rebuilt, and a
// frame holds at most a budget's worth of subs.
const maxRebuilt = 1 << 20

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

// commonSuffixLen is the length of the longest shared byte suffix,
// compared eight bytes at a time from the ends: in a little-endian word
// the last byte is the most significant.
func commonSuffixLen(a, b []byte) int {
	n := min(len(a), len(b))
	a, b = a[len(a)-n:], b[len(b)-n:]
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[n-i-8:]) ^ binary.LittleEndian.Uint64(b[n-i-8:]); x != 0 {
			return i + bits.LeadingZeros64(x)/8
		}
	}
	for i < n && a[n-1-i] == b[n-1-i] {
		i++
	}
	return i
}

// uvarintLen is the length of v's canonical uvarint encoding.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
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

// subSpan is one sub's layout, as its flag byte and lengths give it: the
// sub is prev[:n+m+k] with data[mid:mid+m] over [n, n+m), then
// data[rest:end], then prev's last s bytes. A full sub takes nothing from
// its predecessor; a prefix sub has m = k = 0; a run sub has s = 0.
type subSpan struct {
	n, m, k, s int
	mid        int
	rest, end  int  // the explicit bytes; end is where the next sub starts
	length     int  // the sub's length
	inPlace    bool // surfaced as data[rest:end], not rebuilt
}

// uvarintAt reads a uvarint at data[off:], returning it and the offset
// after it, or -1 for a truncated or overlong one. Most lengths in a
// frame fit one byte, which it reads inline.
func uvarintAt(data []byte, off int) (uint64, int) {
	if off < len(data) && data[off] < 0x80 {
		return uint64(data[off]), off + 1
	}
	v, k := binary.Uvarint(data[off:])
	if k <= 0 {
		return 0, -1
	}
	return v, off + k
}

// parse reads the sub whose flag byte is data[off] into sp, against a
// predecessor of prevLen bytes (-1 for none), and reports whether it is
// well formed. It checks everything a rebuild needs — every length
// within the frame or the predecessor — so a sub it passes decodes, and
// one it fails is the start of garbage. outBound and walkSubs share it,
// which is what makes the one's count the other's bytes.
func (sp *subSpan) parse(data []byte, off, prevLen int) bool {
	*sp = subSpan{}
	flag := data[off]
	off++
	if flag != subFull {
		if (flag != subPrefix && flag != subPrefixSuffix && flag != subRun) || prevLen < 0 {
			return false
		}
		pl := uint64(prevLen)
		var n, v uint64
		if n, off = uvarintAt(data, off); off < 0 || n > pl {
			return false
		}
		sp.n = int(n)
		switch flag {
		case subPrefixSuffix:
			if v, off = uvarintAt(data, off); off < 0 || v > pl {
				return false
			}
			sp.s = int(v)
		case subRun:
			if v, off = uvarintAt(data, off); off < 0 || v > uint64(len(data)-off) {
				return false
			}
			sp.mid, sp.m = off, int(v)
			off += sp.m
			if v, off = uvarintAt(data, off); off < 0 || n+uint64(sp.m) > pl || v > pl-n-uint64(sp.m) {
				return false
			}
			sp.k = int(v)
		}
	}
	r, off := uvarintAt(data, off)
	if off < 0 || r > uint64(len(data)-off) {
		return false
	}
	sp.rest, sp.end = off, off+int(r)
	sp.length = sp.n + sp.m + sp.k + int(r) + sp.s
	sp.inPlace = flag != subRun && sp.n == 0 && sp.s == 0
	return true
}

// outBound scans the sub grammar of data[off:] without decoding it and
// returns the bytes walkSubs will rebuild from it: every sub but the
// ones surfaced in place (full subs and n = 0, suffix-free prefix subs),
// up to where walkSubs would surface garbage. prevLen is the seeded
// previous sub's length, -1 for none.
func outBound(data []byte, off, prevLen int) int {
	var sp subSpan
	total := 0
	for off < len(data) {
		if !sp.parse(data, off, prevLen) || !sp.inPlace && total+sp.length > maxRebuilt {
			break
		}
		if !sp.inPlace {
			total += sp.length
		}
		prevLen, off = sp.length, sp.end
	}
	return total
}

// baseLen is a seeded predecessor's length for subSpan.parse: -1 for
// none.
func baseLen(prev []byte) int {
	if prev == nil {
		return -1
	}
	return len(prev)
}

// walkSubs decodes the sub grammar from data[off:]. The caller pre-seeds
// prev (nil for a self-contained frame, the link mirror for cross-frame
// continuity). It returns the subs surfaced (a trailing garbage sub
// included), the last surfaced sub's bytes (the seeded prev if none),
// whether that sub was surfaced in place (a slice of data), and whether
// the decode ran clean — !clean means the tail from the offending sub's
// flag byte on went to fn as garbage.
func (w *FrameWalker) walkSubs(data []byte, off int, prev []byte, fn func(sub []byte)) (subs int, last []byte, inPlace, clean bool) {
	// prev is the previous surfaced sub's bytes. It may point into data
	// (subs surfaced in place), into out (rebuilt subs), or wherever the
	// mirror keeps the seed (its own storage, or an earlier frame it
	// references). out is never truncated mid-walk; in stable mode it is
	// one buffer sized exactly for the frame up front, so prev and every
	// surfaced sub stay where they are. (A scratch-mode walk that outgrows
	// its buffer while warming up has append move the tail and leave the
	// earlier backing array readable, which is as good.)
	var out []byte
	if !w.stable {
		out = w.scratch[:0]
	} else if n := outBound(data, off, baseLen(prev)); n > 0 {
		out = make([]byte, 0, n)
	}
	var sp subSpan
	clean = true
	for off < len(data) {
		if !sp.parse(data, off, baseLen(prev)) || !sp.inPlace && len(out)+sp.length > maxRebuilt {
			fn(data[off:])
			subs++
			inPlace, clean = false, false
			break
		}
		var sub []byte
		if sp.inPlace {
			sub = data[sp.rest:sp.end:sp.end]
		} else {
			start := len(out)
			out = append(out, prev[:sp.n+sp.m+sp.k]...)
			copy(out[start+sp.n:], data[sp.mid:sp.mid+sp.m])
			out = append(out, data[sp.rest:sp.end]...)
			out = append(out, prev[len(prev)-sp.s:]...)
			sub = out[start:len(out):len(out)]
		}
		prev, inPlace = sub, sp.inPlace
		fn(sub)
		subs++
		off = sp.end
	}
	if !w.stable {
		w.scratch = out[:0]
	}
	return subs, prev, inPlace, clean
}
