package check

import (
	"errors"
	"testing"

	"ensemble/internal/spec"
)

// The §3.1 total-ordering obligation: the sequencer protocol over
// reliable FIFO channels implements the abstract totally-ordered
// network, and the variant that skips the ordering wait (the kind of
// subtle bug the paper's effort uncovered) is rejected with a
// counterexample.

func TestTotalProtocolRefinesTotalNetwork(t *testing.T) {
	impl := &spec.TotalProtocol{N: 2, MsgsPerSender: 2, Orderly: true}
	if err := TraceInclusion(impl, &spec.TotalNetwork{}, 4_000_000); err != nil {
		t.Fatalf("inclusion failed: %v", err)
	}
}

func TestTotalProtocolThreeMembers(t *testing.T) {
	if testing.Short() {
		t.Skip("larger bounded instance")
	}
	impl := &spec.TotalProtocol{N: 3, MsgsPerSender: 1, Orderly: true}
	if err := TraceInclusion(impl, &spec.TotalNetwork{}, 8_000_000); err != nil {
		t.Fatalf("inclusion failed: %v", err)
	}
}

func TestUnorderedDeliveryIsCaught(t *testing.T) {
	impl := &spec.TotalProtocol{N: 2, MsgsPerSender: 2, Orderly: false}
	err := TraceInclusion(impl, &spec.TotalNetwork{}, 4_000_000)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("buggy protocol passed inclusion (err=%v)", err)
	}
	t.Logf("counterexample: %v", v)
}

// TestTotalAgreementInvariant: in every reachable state of the correct
// protocol, each member's delivered sequence is a prefix of the
// sequencer's order; the variant that skips the ordering wait reaches a
// state where it is not.
func TestTotalAgreementInvariant(t *testing.T) {
	impl := &spec.TotalProtocol{N: 2, MsgsPerSender: 2, Orderly: true}
	if err := CheckInvariant(impl, 4_000_000, impl.Agreement); err != nil {
		t.Fatal(err)
	}
	buggy := &spec.TotalProtocol{N: 2, MsgsPerSender: 2, Orderly: false}
	err := CheckInvariant(buggy, 4_000_000, buggy.Agreement)
	if err == nil || errors.As(err, new(ErrLimit)) {
		t.Fatalf("the unordered variant kept agreement (err=%v)", err)
	}
	t.Logf("unordered variant: %v", err)
}

// TestProtocolsAreDeadlockFree: every reachable state either enables a
// step or is the instance's legitimate completion — the protocols cannot
// wedge short of finishing.
func TestProtocolsAreDeadlockFree(t *testing.T) {
	tp := &spec.TotalProtocol{N: 2, MsgsPerSender: 2, Orderly: true}
	if err := CheckDeadlockFree(tp, 4_000_000, tp.Completed); err != nil {
		t.Fatalf("total protocol: %v", err)
	}
	if err := CheckDeadlockFree(spec.FifoProtocolSystem(2), 2_000_000, nil); err != nil {
		t.Fatalf("fifo protocol: %v", err)
	}
}
