package main

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"slices"

	"ensemble/internal/event"
)

// Every application payload the benchmark casts starts with this header,
// so a receiver can tell which cast it is looking at and whether the
// bytes survived the trip:
//
//	[0:4]  round (uint32 LE)   [4:6] origin rank (uint16 LE)
//	[6]    kind (data / hello) [7]   zero
//	[8:12] CRC-32 of payload[12:]
const (
	payloadHeader = 12
	kindData      = 0
	kindHello     = 1 // the one cast that ends set-up; not checked, not counted
)

// payloads makes each cast's bytes: a window into a pool of seeded
// random bytes, at an offset that moves with every cast, under the
// header. Fresh bytes per cast matter: the wire encoder elides whatever
// a wire shares with its predecessor, and a repeated body would credit
// it with compressing the application's data.
type payloads struct {
	pool []byte
	bufs [][]byte // one per origin, reused: Cast copies what it keeps
}

func newPayloads(seed int64, w *workload) *payloads {
	p := &payloads{pool: make([]byte, 1<<20+w.payload), bufs: make([][]byte, w.members)}
	rand.New(rand.NewSource(seed)).Read(p.pool)
	for r := range p.bufs {
		p.bufs[r] = make([]byte, w.payload)
	}
	return p
}

// next returns origin's buffer holding cast (origin, round).
func (p *payloads) next(origin int, kind byte, round int) []byte {
	buf := p.bufs[origin]
	off := ((origin*1_000_003 + round) * 7919) % (1 << 20)
	copy(buf[payloadHeader:], p.pool[off:])
	binary.LittleEndian.PutUint32(buf[0:], uint32(round))
	binary.LittleEndian.PutUint16(buf[4:], uint16(origin))
	buf[6], buf[7] = kind, 0
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(buf[payloadHeader:]))
	return buf
}

// msgID names a cast in span records.
func msgID(origin, round int) int64 { return int64(origin)<<32 | int64(round) }

// checker decides which casts were delivered correctly: exactly once at
// every member, with an intact checksum, and in an agreed order — one
// total order when total is set, per-origin FIFO always. Deliveries are
// recorded per receiver during the run (each receiver's log is touched
// only by that receiver's goroutine) and judged afterwards, so the timed
// path pays one CRC and one append.
type checker struct {
	members   int // receivers, and origins: every member casts
	perOrigin int // casts per origin
	total     bool
	log       [][]int32 // per receiver: cast index of each delivery, in order
	corrupt   [][]int32 // per receiver: casts that arrived with a bad checksum
	strays    []int     // per receiver: deliveries that name no cast of this run
}

func newChecker(members, perOrigin int, total bool) *checker {
	c := &checker{members: members, perOrigin: perOrigin, total: total,
		log: make([][]int32, members), corrupt: make([][]int32, members), strays: make([]int, members)}
	for r := range c.log {
		c.log[r] = make([]int32, 0, members*perOrigin)
	}
	return c
}

// casts is the number of casts the run attempts.
func (c *checker) casts() int { return c.members * c.perOrigin }

// deliver records one delivery at receiver and returns the cast's index
// (origin*perOrigin + round), or -1 when the payload names no cast of
// this run. origin is the rank the stack reported, which must match the
// rank the sender wrote.
func (c *checker) deliver(receiver, origin int, payload []byte) int {
	if len(payload) < payloadHeader || payload[6] != kindData {
		c.strays[receiver]++
		return -1
	}
	round := int(binary.LittleEndian.Uint32(payload))
	if int(binary.LittleEndian.Uint16(payload[4:])) != origin || origin < 0 || origin >= c.members || round >= c.perOrigin {
		c.strays[receiver]++
		return -1
	}
	idx := int32(origin*c.perOrigin + round)
	if crc32.ChecksumIEEE(payload[payloadHeader:]) != binary.LittleEndian.Uint32(payload[8:]) {
		c.corrupt[receiver] = append(c.corrupt[receiver], idx)
	}
	c.log[receiver] = append(c.log[receiver], idx)
	return int(idx)
}

// digest folds every receiver's delivery sequence into one number: two
// runs delivered the same casts in the same order everywhere exactly
// when their digests are equal.
func (c *checker) digest() uint64 {
	h := fnv.New64a()
	var b [4]byte
	for r, log := range c.log {
		binary.LittleEndian.PutUint32(b[:], uint32(r)|1<<31)
		h.Write(b[:])
		for _, idx := range log {
			binary.LittleEndian.PutUint32(b[:], uint32(idx))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// verdict lists what went wrong, by kind; a cast can appear under more
// than one kind but counts once in failed.
type verdict struct {
	missing, duplicated, corrupted, reordered, strays int
	failed                                            int
}

// finish judges the recorded deliveries.
func (c *checker) finish() verdict {
	var v verdict
	bad := make([]bool, c.casts())
	count := make([]uint8, c.casts())
	for r := 0; r < c.members; r++ {
		v.strays += c.strays[r]
		for _, idx := range c.corrupt[r] {
			bad[idx] = true
			v.corrupted++
		}
		for i := range count {
			count[i] = 0
		}
		for _, idx := range c.log[r] {
			if count[idx] < 255 {
				count[idx]++
			}
		}
		for idx, n := range count {
			switch {
			case n == 0:
				bad[idx] = true
				v.missing++
			case n > 1:
				bad[idx] = true
				v.duplicated++
			}
		}
	}
	// Order. A delivery is out of order when something that should have
	// come after it was already delivered: per origin that is a higher
	// round, in the total order a cast further along the first
	// receiver's sequence. Repeats are judged on their first occurrence.
	var refPos []int32
	if c.total {
		refPos = make([]int32, c.casts())
		for i := range refPos {
			refPos[i] = -1
		}
		n := int32(0)
		for _, idx := range c.log[0] {
			if refPos[idx] < 0 {
				refPos[idx] = n
				n++
			}
		}
	}
	seen := make([]bool, c.casts())
	maxRound := make([]int, c.members)
	for r := 0; r < c.members; r++ {
		for i := range seen {
			seen[i] = false
		}
		for o := range maxRound {
			maxRound[o] = -1
		}
		maxPos := int32(-1)
		for _, idx := range c.log[r] {
			if seen[idx] {
				continue
			}
			seen[idx] = true
			origin, round := int(idx)/c.perOrigin, int(idx)%c.perOrigin
			late := round < maxRound[origin]
			if round > maxRound[origin] {
				maxRound[origin] = round
			}
			if c.total && refPos[idx] >= 0 {
				late = late || refPos[idx] < maxPos
				if refPos[idx] > maxPos {
					maxPos = refPos[idx]
				}
			}
			if late {
				bad[idx] = true
				v.reordered++
			}
		}
	}
	for _, b := range bad {
		if b {
			v.failed++
		}
	}
	// A stray delivery is a failure that belongs to no cast.
	v.failed += v.strays
	return v
}

// agreedView reports whether every survivor's latest view is the same
// view, holds want members, and excludes the crashed address.
func agreedView(last []*event.View, crashed int, gone event.Addr, want int) bool {
	var ref *event.View
	for r, v := range last {
		if r == crashed {
			continue
		}
		if v == nil || v.N() != want || v.RankOf(gone) >= 0 {
			return false
		}
		if ref == nil {
			ref = v
		} else if v.ID != ref.ID || !slices.Equal(v.Members, ref.Members) {
			return false
		}
	}
	return ref != nil
}
