package bench

import (
	"strings"
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
// 1.4x. Timing on a shared machine is noisy: under load from other test
// packages a single sample of one configuration reads up to 3x its
// quiet value, so each attempt takes several samples per configuration,
// interleaved so a burst of load falls on all of them alike, and
// compares the fastest of each. An ordering must hold on some attempt,
// and flakes surface as logged retries.

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

// fastestTotals measures each configuration's code latency on the named
// stack samples times, interleaved, and returns the fastest total of
// each (ns) with a line that names them in µs.
func fastestTotals(t *testing.T, names []string, cfgs []Config, samples, rounds int) ([]float64, string) {
	t.Helper()
	best := make([]float64, len(cfgs))
	for s := 0; s < samples; s++ {
		for i, c := range cfgs {
			seg, err := MeasureCodeLatency(c, names, 4, rounds)
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			if s == 0 || seg.Total() < best[i] {
				best[i] = seg.Total()
			}
		}
	}
	parts := make([]string, len(cfgs))
	for i, c := range cfgs {
		parts[i] = c.String() + "=" + Micros(best[i])
	}
	return best, strings.Join(parts, " ")
}

func TestCodeLatencyOrdering10Layer(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	eventually(t, 3, func() (bool, string) {
		tot, msg := fastestTotals(t, layers.Stack10(), []Config{MACH, IMP, FUNC}, 5, 6000)
		mach, imp, fun := tot[0], tot[1], tot[2]
		return mach < imp && mach < fun && fun < 1.25*imp, "10-layer fastest totals (µs): " + msg
	})
}

func TestCodeLatencyOrdering4Layer(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	eventually(t, 3, func() (bool, string) {
		tot, msg := fastestTotals(t, layers.Stack4(), []Config{HAND, MACH, IMP}, 5, 6000)
		hand, mach, imp := tot[0], tot[1], tot[2]
		return hand < mach && mach < imp, "4-layer fastest totals (µs): " + msg
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
