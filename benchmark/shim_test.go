package main

import (
	"slices"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/netsim"
)

// The member type-asserts its substrate for these; a shim without them
// would turn batching off behind the benchmark's back.
var (
	_ interface {
		SetDrainFlush(func())
		InDrain() bool
	} = (*netShim)(nil)
	_ interface{ SetRebindHook(func(event.Addr)) } = (*udpShim)(nil)
)

// TestShimForwardsDrainFlush drives a shimmed endpoint through one drain
// and sees the hook run inside it, with InDrain true, as the member
// would.
func TestShimForwardsDrainFlush(t *testing.T) {
	c := netsim.NewCluster(1, netsim.Ethernet100())
	ep := c.NewEndpoint(1)
	sh := &netShim{sub: ep, tr: newTracer(false)}
	sh.Attach(1, func(netsim.Packet) {})
	flushed, inDrain := 0, false
	sh.SetDrainFlush(func() { flushed++; inDrain = sh.InDrain() })
	if sh.InDrain() {
		t.Fatal("InDrain outside a drain")
	}
	sh.After(10, func() {})
	c.Run(1000)
	if flushed != 1 || !inDrain {
		t.Fatalf("drain-flush hook ran %d times, InDrain inside it %t; want 1, true", flushed, inDrain)
	}
	if got := sh.tr.get(spanDrainFlush).calls; got != 1 {
		t.Fatalf("drain flush spans = %d, want 1", got)
	}
}

// TestShimFidelity holds the traced run to the path the untraced run
// takes: with the same seed, a group built through the shims (and, for
// interpreted stacks, the layer wrappers) must put the same bytes on the
// wire in the same frames and deliver the same casts in the same order
// at the same virtual instants as one built by the public constructor.
func TestShimFidelity(t *testing.T) {
	for _, name := range []string{"sim8_small", "sim8_frag", "sim8_lossy", "sim64_vsync"} {
		w := findWorkload(name).scaled(0.05)
		plain, err := simRep(&w, 5, runOptions{})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := simRep(&w, 5, runOptions{trs: []*tracer{newTracer(false)}})
		if err != nil {
			t.Fatal(err)
		}
		p, q := plain.delta, traced.delta
		if wireBytesPerMsg(plain) != wireBytesPerMsg(traced) {
			t.Errorf("%s: wire_bytes_per_msg %v untraced, %v through the shim", name, wireBytesPerMsg(plain), wireBytesPerMsg(traced))
		}
		if p.batch.SubPackets != q.batch.SubPackets || p.batch.Frames != q.batch.Frames {
			t.Errorf("%s: subs/frames %d/%d untraced, %d/%d through the shim", name,
				p.batch.SubPackets, p.batch.Frames, q.batch.SubPackets, q.batch.Frames)
		}
		if plain.digest != traced.digest {
			t.Errorf("%s: delivery order differs through the shim", name)
		}
		if !slices.Equal(plain.virtLat, traced.virtLat) {
			t.Errorf("%s: virtual latencies differ through the shim", name)
		}
		if plain.verdict.failed != 0 || traced.verdict.failed != 0 {
			t.Errorf("%s: failed casts: %+v untraced, %+v traced", name, plain.verdict, traced.verdict)
		}
		if traced.spans.get(spanReceive).calls == 0 || traced.spans.get(spanCastCall).calls != int64(w.casts()) {
			t.Errorf("%s: the traced run recorded %d receives and %d casts, want some and %d", name,
				traced.spans.get(spanReceive).calls, traced.spans.get(spanCastCall).calls, w.casts())
		}
	}
}
