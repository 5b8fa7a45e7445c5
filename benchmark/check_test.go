package main

import (
	"testing"

	"ensemble/internal/event"
)

// deliverAll feeds the checker a run in which every receiver gets every
// cast once, in one order, except as mutate rewrites receiver r's
// sequence of (origin, round) pairs.
func deliverAll(t *testing.T, total bool, mutate func(r int, seq [][2]int) [][2]int, spoil func(r int, payload []byte)) verdict {
	t.Helper()
	const members, rounds = 3, 4
	w := &workload{members: members, payload: 40}
	pay := newPayloads(7, w)
	c := newChecker(members, rounds, total)
	var order [][2]int
	for round := 0; round < rounds; round++ {
		for o := 0; o < members; o++ {
			order = append(order, [2]int{o, round})
		}
	}
	for r := 0; r < members; r++ {
		seq := append([][2]int(nil), order...)
		if mutate != nil {
			seq = mutate(r, seq)
		}
		for _, id := range seq {
			p := append([]byte(nil), pay.next(id[0], kindData, id[1])...)
			if spoil != nil {
				spoil(r, p)
			}
			c.deliver(r, id[0], p)
		}
	}
	return c.finish()
}

func TestCheckerAcceptsACleanRun(t *testing.T) {
	for _, total := range []bool{true, false} {
		if v := deliverAll(t, total, nil, nil); v != (verdict{}) {
			t.Fatalf("total=%t: clean run judged %+v", total, v)
		}
	}
}

func TestCheckerCountsADuplicate(t *testing.T) {
	v := deliverAll(t, true, func(r int, seq [][2]int) [][2]int {
		if r == 1 {
			seq = append(seq[:5:5], append([][2]int{seq[4]}, seq[5:]...)...)
		}
		return seq
	}, nil)
	if v.duplicated != 1 || v.failed != 1 || v.missing != 0 || v.reordered != 0 {
		t.Fatalf("one duplicate judged %+v", v)
	}
}

func TestCheckerCountsAMissingDelivery(t *testing.T) {
	for _, receiver := range []int{0, 2} { // receiver 0 is the order's reference
		v := deliverAll(t, true, func(r int, seq [][2]int) [][2]int {
			if r == receiver {
				seq = append(seq[:6:6], seq[7:]...)
			}
			return seq
		}, nil)
		if v.missing != 1 || v.failed != 1 || v.duplicated != 0 || v.reordered != 0 {
			t.Fatalf("one delivery missing at receiver %d judged %+v", receiver, v)
		}
	}
}

func TestCheckerCountsATotalOrderSwap(t *testing.T) {
	swap := func(r int, seq [][2]int) [][2]int {
		if r == 2 {
			seq[3], seq[4] = seq[4], seq[3] // different origins: per-origin FIFO still holds
		}
		return seq
	}
	if v := deliverAll(t, true, swap, nil); v.reordered != 1 || v.failed != 1 {
		t.Fatalf("total order: one swap judged %+v", v)
	}
	if v := deliverAll(t, false, swap, nil); v != (verdict{}) {
		t.Fatalf("FIFO only: a swap across origins is legal, judged %+v", v)
	}
}

func TestCheckerCountsAFIFOSwap(t *testing.T) {
	v := deliverAll(t, false, func(r int, seq [][2]int) [][2]int {
		if r == 1 {
			seq[1], seq[4] = seq[4], seq[1] // origin 1's rounds 0 and 1
		}
		return seq
	}, nil)
	if v.reordered != 1 || v.failed != 1 {
		t.Fatalf("one per-origin swap judged %+v", v)
	}
}

func TestCheckerCountsCorruptionAndStrays(t *testing.T) {
	v := deliverAll(t, true, nil, func(r int, p []byte) {
		if r == 0 && p[0] == 2 && p[4] == 1 { // round 2 of origin 1
			p[len(p)-1] ^= 0x40
		}
	})
	if v.corrupted != 1 || v.failed != 1 {
		t.Fatalf("one flipped payload bit judged %+v", v)
	}
	c := newChecker(2, 2, true)
	if c.deliver(0, 0, []byte("short")) != -1 || c.deliver(1, 0, make([]byte, 64)) != 0 {
		t.Fatal("deliver: a short payload must be a stray, a zero payload names cast 0")
	}
	if c.deliver(1, 1, make([]byte, 64)) != -1 {
		t.Fatal("deliver: a payload whose origin field disagrees with the stack's must be a stray")
	}
	if v := c.finish(); v.strays != 2 || v.failed < 2 {
		t.Fatalf("two strays judged %+v", v)
	}
}

func TestAgreedView(t *testing.T) {
	members := []event.Addr{1, 2, 3}
	after := []event.Addr{1, 2}
	last := []*event.View{event.NewView("g", 2, after, 0), event.NewView("g", 2, after, 1), nil}
	if !agreedView(last, 2, 3, 2) {
		t.Fatal("survivors with one view of two members agree")
	}
	last[1] = event.NewView("g", 3, after, 1)
	if agreedView(last, 2, 3, 2) {
		t.Fatal("different view ids must not agree")
	}
	last[1] = event.NewView("g", 2, members, 1)
	if agreedView(last, 2, 3, 2) {
		t.Fatal("a view that still holds the crashed member must not agree")
	}
	last[1] = nil
	if agreedView(last, 2, 3, 2) {
		t.Fatal("a survivor that installed nothing must not agree")
	}
}
