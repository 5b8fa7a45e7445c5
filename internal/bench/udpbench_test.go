package bench

import "testing"

// TestUDPThroughputSmoke runs the loopback harness small: all wires
// arrive, the socket stays clean, bursts leave coalesced, and the frames
// cost fewer bytes than the same wires as unbatched classic frames.
func TestUDPThroughputSmoke(t *testing.T) {
	res, err := MeasureUDPThroughput(200, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Net.Datagrams == 0 || res.BytesPerMsg <= 0 {
		t.Fatalf("empty socket accounting: %+v", res)
	}
	if res.Net.Datagrams >= int64(res.Msgs) {
		t.Fatalf("%d datagrams for %d wires — no syscall coalescing", res.Net.Datagrams, res.Msgs)
	}
	if res.SubsPerFrame < 2 {
		t.Fatalf("run coalesced only %.2f subs/frame", res.SubsPerFrame)
	}
	if res.Batch.FrameBytes >= res.Batch.ClassicBytes {
		t.Fatalf("%d frame bytes against an unbatched-classic yardstick of %d — compression bought nothing",
			res.Batch.FrameBytes, res.Batch.ClassicBytes)
	}
}
