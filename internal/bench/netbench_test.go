package bench

import (
	"testing"

	"ensemble/internal/layers"
)

// TestNetThroughputConcurrent is the package's -race exercise: a
// 5-member group runs the full 10-layer stack one-goroutine-per-member
// and must deliver every cast everywhere. The sequential run of the
// same seed must see the same network traffic and deliveries.
func TestNetThroughputConcurrent(t *testing.T) {
	for _, cfg := range []Config{IMP, FUNC, MACH} {
		t.Run(cfg.String(), func(t *testing.T) {
			conc, err := MeasureNetThroughput(cfg, layers.Stack10(), 5, 64, 40, 17, 5)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := MeasureNetThroughput(cfg, layers.Stack10(), 5, 64, 40, 17, 1)
			if err != nil {
				t.Fatal(err)
			}
			if seq.Net != conc.Net {
				t.Fatalf("sequential and concurrent runs saw different network traffic:\nseq:  %+v\nconc: %+v",
					seq.Net, conc.Net)
			}
			if seq.Delivered != conc.Delivered || seq.VirtualLatency != conc.VirtualLatency {
				t.Fatalf("delivery results diverge: seq %d/%.0fns conc %d/%.0fns",
					seq.Delivered, seq.VirtualLatency, conc.Delivered, conc.VirtualLatency)
			}
			if conc.VirtualLatency < 80_000 {
				t.Fatalf("virtual latency %.0fns below the 80µs link latency (stamp plumbing broken)",
					conc.VirtualLatency)
			}
		})
	}
}

// TestNetThroughputRejectsBadShapes: unsupported configs and degenerate
// group sizes fail loudly instead of measuring nonsense.
func TestNetThroughputRejectsBadShapes(t *testing.T) {
	if _, err := MeasureNetThroughput(HAND, layers.Stack4(), 4, 8, 4, 1, 1); err == nil {
		t.Fatal("HAND has no N-member harness but was accepted")
	}
	if _, err := MeasureNetThroughput(IMP, layers.Stack10(), 1, 8, 4, 1, 1); err == nil {
		t.Fatal("1-member group was accepted")
	}
}

// TestNetThroughputCoalesces: at 8 members with the adaptive quantum
// on, every configuration must actually coalesce — at least two
// sub-packets per frame on average (the batching acceptance bar) — and
// put fewer bytes on the wire than the same wires would cost as
// unbatched classic frames. 150 rounds keeps the run data-dominated; the
// fixed 2 s stability tail is mostly lonely gossip frames and would
// dilute the factor on a short run. The observed MACH run is the
// observability-overhead benchmark's workload.
//
// The MACH run at the minimum stamped payload (8 bytes: header-dominated
// wires, the case the sub grammar's elisions exist for) also holds the
// wire format to paying for itself: bytes/msg at most 0.487x the same
// run's classic-bytes/msg (measured 12.39 against 30.02, 0.413x). The
// bar continues the one it replaced, <= 0.5x a separately measured
// batched-classic run (30.67 bytes/msg at 699768e, when the computed
// yardstick read 62.95), so it admits no more than before.
func TestNetThroughputCoalesces(t *testing.T) {
	for _, c := range []struct {
		name    string
		measure func(Config, []string, int, int, int, int64, int) (NetThroughput, error)
		cfg     Config
		size    int
		rounds  int
		// wireBar, when set, bounds bytes/msg as a share of
		// classic-bytes/msg.
		wireBar float64
	}{
		{"IMP", MeasureNetThroughput, IMP, 64, 150, 0},
		{"FUNC", MeasureNetThroughput, FUNC, 64, 150, 0},
		{"MACH", MeasureNetThroughput, MACH, 8, 150, 0.487},
		{"MACH_Obs", MeasureObservedNetThroughput, MACH, 8, 600, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := c.measure(c.cfg, layers.Stack10(), 8, c.size, c.rounds, 29, 1)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.2f subs/frame, %.2f bytes/msg against %.2f classic", res.SubsPerFrame, res.BytesPerMsg, res.ClassicBytesPerMsg)
			if res.SubsPerFrame < 2 {
				t.Errorf("8-member run coalesced only %.2f subs/frame, want >= 2", res.SubsPerFrame)
			}
			if res.ClassicBytesPerMsg <= 0 || res.BytesPerMsg >= res.ClassicBytesPerMsg {
				t.Errorf("%.2f bytes/msg on the wire against an unbatched-classic yardstick of %.2f",
					res.BytesPerMsg, res.ClassicBytesPerMsg)
			}
			if c.wireBar > 0 && res.BytesPerMsg > c.wireBar*res.ClassicBytesPerMsg {
				t.Errorf("wire format costs %.2f bytes/msg against %.2f unbatched-classic (%.3fx), want <= %.3fx",
					res.BytesPerMsg, res.ClassicBytesPerMsg, res.BytesPerMsg/res.ClassicBytesPerMsg, c.wireBar)
			}
		})
	}
}
