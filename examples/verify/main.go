// Verify: the §3 correctness machinery. Composes the concrete
// FifoProtocol specification (Fig. 3) with lossy channels by tying
// events (§3.1), and exhaustively checks that every external trace of
// the composition is a trace of the abstract FifoNetwork (Fig. 2(a)).
// Then it checks the total-ordering protocol the paper's manual proof
// found a bug in, in the variant that skips the ordering wait, and
// prints the counterexample trace the checker finds, the way the paper's
// verification effort "located a subtle bug in the original
// implementation".
//
// This example uses the internal packages directly because it is part of
// the repository; external users drive the same machinery through
// cmd/ensemble-check.
package main

import (
	"errors"
	"fmt"
	"os"

	"ensemble/internal/check"
	"ensemble/internal/layers"
	"ensemble/internal/spec"
)

func main() {
	fmt.Println("== trace inclusion: FifoProtocol ∘ LossyChannels ⊑ FifoNetwork ==")
	impl := spec.FifoProtocolSystem(2)
	states, err := check.Reachable(impl, 2_000_000)
	if err != nil {
		fail(err)
	}
	fmt.Printf("composition has %d reachable states\n", states)
	if err := check.TraceInclusion(impl, &spec.FifoNetwork{}, 2_000_000); err != nil {
		fail(err)
	}
	fmt.Println("OK: the protocol implements FIFO delivery over loss, duplication, and reordering")

	fmt.Println("\n== configuration checking (§3.2) ==")
	for _, names := range [][]string{layers.Stack4(), layers.Stack10(), layers.StackVsync()} {
		gs, err := check.CheckStack(names)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%v\n  provides %v\n", names, gs)
	}
	// A misconfiguration: total order stacked over an unreliable base.
	bad := []string{layers.PartialAppl, layers.Total, layers.Local, layers.Bottom}
	if _, err := check.CheckStack(bad); err == nil {
		fail(errors.New("misconfigured stack passed the adjacency check"))
	} else {
		fmt.Printf("misconfiguration rejected as expected:\n  %v\n", err)
	}

	fmt.Println("\n== finding a protocol bug: TotalProtocol without the ordering wait ⋢ TotalNetwork ==")
	buggy := &spec.TotalProtocol{N: 2, MsgsPerSender: 2, Orderly: false}
	err = check.TraceInclusion(buggy, &spec.TotalNetwork{}, 4_000_000)
	var v *check.Violation
	if !errors.As(err, &v) {
		fail(fmt.Errorf("buggy total-order protocol not caught: %v", err))
	}
	fmt.Printf("checker found the bug; counterexample trace:\n  %v\n", v)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "verify: FAIL: %v\n", err)
	os.Exit(1)
}
