package bench

import (
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/layers"
)

// allocsCounted reports whether heap allocation counts are the
// program's own: pool debugging allocates every event, and the race
// detector's sync.Pool drops items at random.
func allocsCounted() bool { return !event.PoolDebugEnabled() && !raceEnabled }

// TestThroughputAllocFree holds §4 item 1 (avoiding garbage-collection
// cycles) on the path every member's traffic takes: a 10-layer cast
// round — stack, batcher encode, receive-link decode, delivery —
// allocates nothing under IMP, FUNC and MACH, with the observability
// substrate off and on. The warm-up runs past the 256-round sweep
// boundary, because the first round after a sweep regrows a pooled
// buffer once. AllocsPerRun averages over 100 rounds, so a GC emptying
// the pools' victim cache mid-run costs one refill, not a failure, while
// any per-round allocation reads at least 1. subs/frame above 1 shows
// the batcher is on the path; the observed runners must also have
// flight-recorded and sampled their wire-size histograms.
func TestThroughputAllocFree(t *testing.T) {
	for _, cfg := range []Config{IMP, FUNC, MACH} {
		for _, observed := range []bool{false, true} {
			name := cfg.String()
			if observed {
				name += "_Obs"
			}
			t.Run(name, func(t *testing.T) {
				r, err := newThroughputRunner(cfg, layers.Stack10(), 4, observed)
				if err != nil {
					t.Fatal(err)
				}
				r.Run(520)
				if allocsCounted() {
					if n := testing.AllocsPerRun(100, func() { r.Run(1) }); n != 0 {
						t.Errorf("%v allocs per cast round, want 0", n)
					}
				}
				bs := r.BatchStats()
				t.Logf("%d subs in %d frames", bs.SubPackets, bs.Frames)
				if bs.SubPackets <= bs.Frames {
					t.Errorf("%d subs in %d frames: the batcher is not coalescing on the measured path", bs.SubPackets, bs.Frames)
				}
				if !observed {
					return
				}
				if r.FlightRecorder().Track(0).Total() == 0 {
					t.Error("observed run recorded nothing")
				}
				snap := r.Metrics()
				n, _ := snap.Get("member0/wire_bytes/count")
				p99, _ := snap.Get("member0/wire_bytes/p99")
				if n == 0 || p99 <= 0 {
					t.Errorf("wire-size histogram sampled nothing (count=%d p99=%d)", n, p99)
				}
			})
		}
	}
}
