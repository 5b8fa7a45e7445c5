package bench

import "testing"

func TestMeasureScaleSmall(t *testing.T) {
	res, err := MeasureScale(16, 4, 31, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Fatal("16-member determinism probe failed: Run and RunConcurrent traces diverge")
	}
	if res.Delivered < 16*16*4 {
		t.Fatalf("delivered %d, want >= %d", res.Delivered, 16*16*4)
	}
	if res.PerMember <= 0 {
		t.Fatal("per-member throughput not computed")
	}
}

func TestMeasureHierScaleSmall(t *testing.T) {
	res, err := MeasureHierScale(4, 4, 2, 31, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Fatal("hier determinism probe failed: Run and RunConcurrent traces diverge")
	}
	if res.Groups != 4 || res.Members != 16 {
		t.Fatalf("wrong shape: %d members in %d groups", res.Members, res.Groups)
	}
	if res.Delivered < 16*16*2 {
		t.Fatalf("delivered %d, want >= %d", res.Delivered, 16*16*2)
	}
}

// TestMeasureViewChangeSmall pins what taking the tree at every size
// costs a small group: at 8 members the leaver's parent is an interior
// relay, so the change pays one tree level (three link latencies) over
// coordinator-direct dissemination's 0.32 ms — and no more.
func TestMeasureViewChangeSmall(t *testing.T) {
	vc, err := MeasureViewChange(8, 37)
	if err != nil {
		t.Fatal(err)
	}
	if vc.LatencyVirtual <= 0 || vc.LatencyVirtual > 560_000 {
		t.Fatalf("8-member view change took %d virtual ns, want (0, 560000]", vc.LatencyVirtual)
	}
	if vc.Packets <= 0 {
		t.Fatalf("view change wire cost not measured: %+v", vc)
	}
}
