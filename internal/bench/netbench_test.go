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
// on, the run must actually coalesce — at least two sub-packets per
// frame on average (the batching acceptance bar) — and put fewer bytes
// on the wire than the same wires would cost as unbatched classic
// frames. 150 rounds keeps the run data-dominated; the fixed 2 s
// stability tail is mostly lonely gossip frames and would dilute the
// factor on a short run.
func TestNetThroughputCoalesces(t *testing.T) {
	res, err := MeasureNetThroughput(IMP, layers.Stack10(), 8, 64, 150, 29, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.SubsPerFrame < 2 {
		t.Fatalf("8-member run coalesced only %.2f subs/frame, want >= 2", res.SubsPerFrame)
	}
	if res.ClassicBytesPerMsg <= 0 || res.BytesPerMsg >= res.ClassicBytesPerMsg {
		t.Fatalf("%.2f bytes/msg on the wire against an unbatched-classic yardstick of %.2f",
			res.BytesPerMsg, res.ClassicBytesPerMsg)
	}
}
