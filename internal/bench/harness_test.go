package bench

import (
	"testing"

	"ensemble/internal/layers"
)

// The absolute numbers are host-dependent; what the paper's tables claim
// — and what these tests pin — is the ordering: the machine-generated
// bypass beats both interpreted stacks, and the hand bypass beats them
// all on the 4-layer stack. The paper also has IMP ahead of FUNC (81 µs
// against 132 µs on ten layers); ours is not: FUNC's composition is paid
// once at build time (internal/stack/func.go), so the two run the same
// handlers over comparable glue and the test holds FUNC to within a
// quarter of IMP instead — the recursion, were it to come back, cost
// 1.4x. Timing on a shared machine is noisy, so each ordering gets a few
// attempts; it must hold on some run, and flakes surface as logged
// retries.

// eventually retries a timing-sensitive check.
func eventually(t *testing.T, attempts int, run func() (bool, string)) {
	t.Helper()
	var last string
	for i := 0; i < attempts; i++ {
		ok, msg := run()
		last = msg
		if ok {
			if i > 0 {
				t.Logf("ordering held on attempt %d: %s", i+1, msg)
			}
			return
		}
		t.Logf("attempt %d: %s", i+1, msg)
	}
	t.Fatalf("ordering never held in %d attempts; last: %s", attempts, last)
}

func TestCodeLatencyOrdering10Layer(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const rounds = 6000
	eventually(t, 3, func() (bool, string) {
		mach, err := MeasureCodeLatency(MACH, layers.Stack10(), 4, rounds)
		if err != nil {
			t.Fatalf("MACH: %v", err)
		}
		imp, err := MeasureCodeLatency(IMP, layers.Stack10(), 4, rounds)
		if err != nil {
			t.Fatalf("IMP: %v", err)
		}
		fun, err := MeasureCodeLatency(FUNC, layers.Stack10(), 4, rounds)
		if err != nil {
			t.Fatalf("FUNC: %v", err)
		}
		msg := "10-layer totals (µs): MACH=" + Micros(mach.Total()) +
			" IMP=" + Micros(imp.Total()) + " FUNC=" + Micros(fun.Total())
		return mach.Total() < imp.Total() && mach.Total() < fun.Total() && fun.Total() < 1.25*imp.Total(), msg
	})
}

func TestCodeLatencyOrdering4Layer(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const rounds = 6000
	eventually(t, 3, func() (bool, string) {
		hand, err := MeasureCodeLatency(HAND, layers.Stack4(), 4, rounds)
		if err != nil {
			t.Fatalf("HAND: %v", err)
		}
		mach, err := MeasureCodeLatency(MACH, layers.Stack4(), 4, rounds)
		if err != nil {
			t.Fatalf("MACH: %v", err)
		}
		imp, err := MeasureCodeLatency(IMP, layers.Stack4(), 4, rounds)
		if err != nil {
			t.Fatalf("IMP: %v", err)
		}
		msg := "4-layer totals (µs): HAND=" + Micros(hand.Total()) +
			" MACH=" + Micros(mach.Total()) + " IMP=" + Micros(imp.Total())
		return hand.Total() < mach.Total() && mach.Total() < imp.Total(), msg
	})
}

func TestCCPCheckIsSmallFractionOfStackCost(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	ccp, err := MeasureCCPCheck(layers.Stack10(), 100000)
	if err != nil {
		t.Fatal(err)
	}
	imp, err := MeasureCodeLatency(IMP, layers.Stack10(), 4, 2000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("CCP check %v; IMP total %sµs", ccp, Micros(imp.Total()))
	// The paper: checking the CCPs takes ~3µs against 81µs of IMP
	// processing. Shape requirement: the check is well under half the
	// full-stack cost, so bypass dispatch is worth it.
	if float64(ccp.Nanoseconds()) > imp.Total()/2 {
		t.Errorf("CCP check (%v) is not cheap relative to the stack (%v ns)", ccp, imp.Total())
	}
}
