package bench

import "testing"

// TestMeasureScaleSmall runs the flat points of the member-count sweep
// at the scale benchmarks' sizes. Sequential runs repeat their heap
// allocation count exactly, so each point holds a ceiling on allocations
// per delivery ~10% over what the point measured when it was set (18.02
// at 16 members, 43.03 at 64; most of it is the two idle seconds of
// failure detection and stability gossip each run ends with): retaining
// a delivered cast is a copy into a slab, and a deep clone per delivery
// coming back into the receive path would add ten or more.
func TestMeasureScaleSmall(t *testing.T) {
	for _, p := range []struct {
		members, rounds int
		allocCeiling    float64
	}{
		{16, 20, 20},
		{64, 8, 47},
	} {
		res, err := MeasureScale(p.members, p.rounds, 31, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d members: %.2f allocs/delivery", p.members, res.AllocsPerDelivery)
		if res.Delivered < p.members*p.members*p.rounds {
			t.Errorf("%d members: delivered %d, want >= %d", p.members, res.Delivered, p.members*p.members*p.rounds)
		}
		if res.PerMember <= 0 {
			t.Errorf("%d members: per-member throughput not computed", p.members)
		}
		if allocsCounted() && res.AllocsPerDelivery > p.allocCeiling {
			t.Errorf("%d members: %.2f allocations per delivery, ceiling %.0f: something on the receive path allocates per message again",
				p.members, res.AllocsPerDelivery, p.allocCeiling)
		}
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

// TestRunMatchesRunConcurrent replays each determinism probe through Run
// and RunConcurrent and compares the cluster delivery traces byte for
// byte: the flat scale points, the 256-member hierarchy, and the
// 8-member MACH group with cross-frame delta chains, the adaptive flush
// and a mid-run generation bump on (the stateful wire format).
func TestRunMatchesRunConcurrent(t *testing.T) {
	for _, c := range []struct {
		name  string
		probe func(workers int) (bool, error)
	}{
		{"flat16", func(w int) (bool, error) { return flatIdentityProbe(16, 31, w) }},
		{"flat64", func(w int) (bool, error) { return flatIdentityProbe(64, 31, w) }},
		{"hier16x16", func(w int) (bool, error) { return hierIdentityProbe(16, 16, 31, w) }},
		{"xframe8", func(w int) (bool, error) { return XFrameIdentityProbe(8, 29, w) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			ok, err := c.probe(4)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("Run and RunConcurrent traces diverge")
			}
		})
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
