package bench

import "testing"

// TestSpanReconComplete: the flight dump of the 8-member netsim
// reference run maps every delivered message to a complete causal chain
// — origin cast, the frame off the origin, every member's receive and
// ordered delivery — so latency is measured from the system's own
// records.
func TestSpanReconComplete(t *testing.T) {
	stats, err := SpanReconProbe(8, 16, 64, 29)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d spans complete", stats.Complete, stats.Spans)
	if stats.Spans == 0 || stats.Complete != stats.Spans {
		t.Fatalf("%d of %d spans complete (missing: cast %d, deliver %d, wire %d)",
			stats.Complete, stats.Spans, stats.MissingCast, stats.MissingDeliver, stats.MissingWire)
	}
}
