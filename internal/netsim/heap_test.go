package netsim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestEventHeapOrder: random interleaved pushes and pops come out in
// (t, seq) order, checked against a sorted oracle; times collide often,
// so ties are broken by sequence all the time.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h eventHeap
	var oracle []shardEvent
	seq := int64(0)
	byKey := func(a, b shardEvent) int {
		if a.t != b.t {
			return int(a.t - b.t)
		}
		return int(a.seq - b.seq)
	}
	for op := 0; op < 8000; op++ {
		if len(oracle) == 0 || rng.Intn(5) < 3 {
			seq++
			ev := shardEvent{t: rng.Int63n(50), seq: seq, idx: int32(seq)}
			h.push(ev)
			oracle = append(oracle, ev)
			continue
		}
		slices.SortFunc(oracle, byKey)
		got := h.pop()
		if got.t != oracle[0].t || got.seq != oracle[0].seq || got.idx != oracle[0].idx {
			t.Fatalf("op %d: popped (t=%d seq=%d), want (t=%d seq=%d)", op, got.t, got.seq, oracle[0].t, oracle[0].seq)
		}
		oracle = oracle[1:]
		if len(h) != len(oracle) {
			t.Fatalf("op %d: heap holds %d events, oracle %d", op, len(h), len(oracle))
		}
	}
	slices.SortFunc(oracle, byKey)
	for _, want := range oracle {
		if got := h.pop(); got.seq != want.seq {
			t.Fatalf("draining: popped seq %d, want %d", got.seq, want.seq)
		}
	}
}

// TestEventHeapAllocatesNothing: once the backing array has grown to the
// heap's working size, a push and a pop allocate nothing — no event is
// boxed on its way in or out.
func TestEventHeapAllocatesNothing(t *testing.T) {
	var h eventHeap
	seq := int64(0)
	for ; seq < 64; seq++ {
		h.push(shardEvent{t: seq % 7, seq: seq})
	}
	fn := func() {}
	data := []byte{1}
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		h.push(shardEvent{t: seq % 7, seq: seq, pkt: Packet{Data: data}, fn: fn})
		h.pop()
	})
	if allocs != 0 {
		t.Fatalf("push+pop allocates %.1f times, want 0", allocs)
	}
}
