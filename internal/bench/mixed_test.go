package bench

import "testing"

// TestMixedTrafficStaysCompiled holds the multi-CCP dispatch family to
// the mixed workload (ring sends, periodic casts, loss-forced
// retransmissions on the FIFO stack): every event has one compiled path
// to probe — data cast, data send, each control message kind — so what
// reaches the interpreter is what no common case covers. Measured 0.0034
// once a CCP miss entered the stack at the layer that failed; 0.02 leaves
// room for seed-to-seed variation and catches a lost control family (an
// engine with no control recognizers reads 0.2945 and compresses
// nothing). 600 rounds: the share is a ratio of event populations, and a
// handful of rounds would measure start-up, not the steady mix.
func TestMixedTrafficStaysCompiled(t *testing.T) {
	res, err := MeasureMixedTraffic(5, 600, 42)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("interp-share %.4f of %d routed, %d control messages compressed", res.InterpShare(), res.TotalRouted(), res.CtrlCompressed)
	if share := res.InterpShare(); share > 0.02 {
		t.Errorf("%.2f%% of routed events reached the interpreted stack, want <= 2%%", share*100)
	}
	if res.CtrlCompressed <= 0 {
		t.Error("no control traffic left compressed")
	}
}
