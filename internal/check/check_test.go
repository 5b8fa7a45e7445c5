package check

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ensemble/internal/core"
	"ensemble/internal/layers"
	"ensemble/internal/spec"
)

// TestFifoProtocolRefinesFifoNetwork is the §3.1 proof obligation made
// executable: every external trace of FifoProtocol composed with lossy
// channels is a trace of the abstract FifoNetwork, checked exhaustively
// on a bounded instance.
func TestFifoProtocolRefinesFifoNetwork(t *testing.T) {
	impl := spec.FifoProtocolSystem(2)
	if err := TraceInclusion(impl, &spec.FifoNetwork{}, 2_000_000); err != nil {
		t.Fatalf("inclusion failed: %v", err)
	}
}

func TestFifoProtocolRefinesFifoNetworkThreeMessages(t *testing.T) {
	if testing.Short() {
		t.Skip("larger bounded instance")
	}
	impl := spec.FifoProtocolSystem(3)
	if err := TraceInclusion(impl, &spec.FifoNetwork{}, 8_000_000); err != nil {
		t.Fatalf("inclusion failed: %v", err)
	}
}

// brokenReceiver delivers whatever arrives, without sequencing — the
// kind of subtle protocol bug the paper's verification effort caught.
// The checker must produce a counterexample trace.
type brokenReceiver struct{ msgs int }

func (b *brokenReceiver) Name() string { return "BrokenReceiver" }
func (b *brokenReceiver) Signature() map[string]spec.Kind {
	return map[string]spec.Kind{
		"data.deliver": spec.Input,
		"Deliver":      spec.Output,
		"ack.send":     spec.Output,
	}
}
func (b *brokenReceiver) Initial() []spec.State {
	return []spec.State{&brokenReceiverState{a: b}}
}

type brokenReceiverState struct {
	a       *brokenReceiver
	got     int
	pending []int
}

func (s *brokenReceiverState) Key() string {
	return spec.KeyOf("brok", fmt.Sprintf("%d", s.got), spec.IntsKey(s.pending))
}
func (s *brokenReceiverState) clone() *brokenReceiverState {
	return &brokenReceiverState{a: s.a, got: s.got, pending: append([]int(nil), s.pending...)}
}
func (s *brokenReceiverState) Steps() []spec.Step {
	var steps []spec.Step
	for seq := 0; seq < s.a.msgs; seq++ {
		for m := 0; m < s.a.msgs; m++ {
			next := s.clone()
			// Bug: no duplicate suppression, no ordering.
			next.pending = append(next.pending, m)
			if len(next.pending) > 3 {
				next.pending = next.pending[:3] // keep the graph bounded
			}
			steps = append(steps, spec.Step{Ev: spec.Event{Name: "data.deliver", Params: []int{seq, m}}, Next: next})
		}
	}
	if len(s.pending) > 0 {
		next := s.clone()
		m := next.pending[0]
		next.pending = next.pending[1:]
		steps = append(steps, spec.Step{Ev: spec.Event{Name: "Deliver", Params: []int{0, m}}, Next: next})
	}
	steps = append(steps, spec.Step{Ev: spec.Event{Name: "ack.send", Params: []int{s.got}}, Next: s.clone()})
	return steps
}

func TestBrokenProtocolIsCaught(t *testing.T) {
	dataUniverse := [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ackUniverse := [][]int{{0}, {1}, {2}}
	impl := spec.Compose("Broken∘LossyChannels",
		[]string{"data.send", "data.deliver", "data.drop", "ack.send", "ack.deliver", "ack.drop"},
		spec.NewFifoSender(0, 2),
		&spec.PacketChannel{Tag: "data", Universe: dataUniverse},
		&spec.PacketChannel{Tag: "ack", Universe: ackUniverse},
		&brokenReceiver{msgs: 2},
	)
	err := TraceInclusion(impl, &spec.FifoNetwork{}, 2_000_000)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("broken receiver passed inclusion (err=%v)", err)
	}
	t.Logf("counterexample: %v", v)
	if len(v.Trace) == 0 {
		t.Fatal("empty counterexample trace")
	}
}

// --- §3.2 configuration checking ---

func TestPredefinedStacksCheck(t *testing.T) {
	for name, names := range map[string][]string{
		"stack4":  layers.Stack4(),
		"stack10": layers.Stack10(),
		"fifo":    layers.StackFifo(),
		"vsync":   layers.StackVsync(),
	} {
		t.Run(name, func(t *testing.T) {
			gs, err := CheckStack(names)
			if err != nil {
				t.Fatalf("CheckStack(%v): %v", names, err)
			}
			t.Logf("%s provides %v", name, gs)
		})
	}
}

// selectionDigest is the SHA-256 of every (request, stack) pair the
// selector returns over the property space, one "%v=%v" line each in
// mask order. The stacks may change only on purpose.
const selectionDigest = "5cd33b9333ac5db2dc86ea2d2d5c3ef2e10e05477636ae0f860cf4c71224dd3e"

func TestSelectedStacksCheck(t *testing.T) {
	// Every stack the property-driven selector produces must pass the
	// adjacency check and provide every guarantee the request asks for —
	// the paper's open question ("we cannot currently be sure that it
	// always generates a correct stack") answered for our component
	// library by brute force over the property space.
	props := core.Properties()
	h := sha256.New()
	for mask := 0; mask < 1<<len(props); mask++ {
		var req []core.Property
		for i, p := range props {
			if mask&(1<<i) != 0 {
				req = append(req, p)
			}
		}
		names, err := core.SelectStack(req)
		if err != nil {
			t.Fatalf("SelectStack(%v): %v", req, err)
		}
		fmt.Fprintf(h, "%v=%v\n", req, names)
		gs, err := CheckStack(names)
		if err != nil {
			t.Fatalf("SelectStack(%v) = %v fails adjacency: %v", req, names, err)
		}
		for _, p := range req {
			for _, g := range p.Guarantees() {
				if !slices.Contains(gs, g) {
					t.Fatalf("SelectStack(%v) = %v provides %v, without %q asked by %q", req, names, gs, g, p)
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != selectionDigest {
		t.Fatalf("the selected stacks changed: digest %s, want %s", got, selectionDigest)
	}
}

func TestBadStacksRejected(t *testing.T) {
	cases := [][]string{
		{layers.Total, layers.Local, layers.Bottom},                         // total order without reliability
		{layers.Top, layers.Local, layers.Bottom},                           // self-delivery without reliability
		{layers.Top, layers.Mnak},                                           // no bottom terminator
		{layers.Mnak, layers.Bottom},                                        // no application interface
		{layers.PartialAppl, layers.Membership, layers.Mnak, layers.Bottom}, // membership without detection
	}
	for _, names := range cases {
		if _, err := CheckStack(names); err == nil {
			t.Errorf("CheckStack(%v) unexpectedly passed", names)
		} else if !strings.Contains(err.Error(), "check:") {
			t.Errorf("unexpected error shape: %v", err)
		}
	}
}
