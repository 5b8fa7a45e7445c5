package bench

import (
	"testing"

	"ensemble/internal/opt"
)

// TestMixedTrafficStaysCompiled holds the multi-CCP dispatch family to
// the mixed workload (ring sends, periodic casts, loss-forced
// retransmissions on the FIFO stack): every event has one compiled path
// to probe — data cast, data send, each control message kind — so what
// reaches the interpreter from the top, or as a full image, is what no
// common case covers. A compressed arrival whose common case fails (the
// duplicates and out-of-order arrivals the loss makes) is expanded in
// front of the whole stack instead, once per up-path miss; the bar
// leaves those out. Measured 0.0034 (0.1726 with the expanded arrivals
// counted); 0.02 leaves room for seed-to-seed variation and catches a
// lost control family (an engine with no control recognizers reads
// 0.2945 and compresses nothing). 600 rounds: the share is a ratio of
// event populations, and a handful of rounds would measure start-up,
// not the steady mix.
func TestMixedTrafficStaysCompiled(t *testing.T) {
	res, err := MeasureMixedTraffic(5, 600, 42)
	if err != nil {
		t.Fatal(err)
	}
	var upMisses int64
	for _, pid := range []opt.PathID{opt.PathUpCast, opt.PathUpSend, opt.PathUpAck, opt.PathUpRetrans, opt.PathUpOrder} {
		upMisses += res.Misses[pid]
	}
	share := float64(res.Hits[opt.PathFullStack]-res.Uncompressed) / float64(res.TotalRouted())
	t.Logf("interp-share %.4f (%.4f with %d expanded arrivals) of %d routed, %d control messages compressed",
		share, res.InterpShare(), res.Uncompressed, res.TotalRouted(), res.CtrlCompressed)
	if share > 0.02 {
		t.Errorf("%.2f%% of routed events reached the interpreted stack uncompressed or from the top, want <= 2%%", share*100)
	}
	if res.Uncompressed != upMisses {
		t.Errorf("%d compressed arrivals were expanded, but the up paths missed %d times", res.Uncompressed, upMisses)
	}
	if res.CtrlCompressed <= 0 {
		t.Error("no control traffic left compressed")
	}
}
