package opt

import (
	"slices"
	"strings"
	"testing"

	"ensemble/internal/ir"
	"ensemble/internal/layers"
)

func TestComposeDnCastStack10Sequencer(t *testing.T) {
	th, err := ComposeDn(layers.Stack10(), ir.DnCast, 0, 2)
	if err != nil {
		t.Fatalf("ComposeDn: %v", err)
	}
	t.Logf("\n%s", th)
	if len(th.Headers) != len(layers.Stack10()) {
		t.Fatalf("composed %d headers, want one per layer (%d)", len(th.Headers), len(layers.Stack10()))
	}
	if !th.SelfDeliver {
		t.Fatal("sequencer cast bypass must self-deliver (bounce through total and partial_appl)")
	}
	// The sequencer's fast path requires its order counter to be caught
	// up: the bounce composition must surface g_count == next_global as
	// a pre-state conjunct.
	found := false
	for _, c := range th.CCP {
		s := c.String()
		if strings.Contains(s, "g_count") && strings.Contains(s, "next_global") {
			found = true
		}
	}
	if !found {
		t.Errorf("CCP lacks the g_count/next_global conjunct; CCP = %v", th.CCP)
	}
}

func TestComposeDnCastStack10NonSequencer(t *testing.T) {
	// The non-sequencer's own casts await an order announcement. The
	// full composition still succeeds — partial evaluation discovers
	// that the self-delivery is only a common case when the announced
	// order has caught up, surfacing the conjunct -1 == next_global,
	// which is unsatisfiable at run time. It lies in the bounce segment,
	// so the cast still runs compiled on the wire side and hands its
	// self-delivery copy to the stack.
	th, err := ComposeDn(layers.Stack10(), ir.DnCast, 1, 2)
	if err != nil {
		t.Fatalf("composition failed: %v", err)
	}
	if !th.SelfDeliver || th.BounceFallback || th.BounceLayer != layers.Local {
		t.Fatalf("bounce should compose symbolically at local: %+v", th)
	}
	b := th.Bounce
	found := false
	for i, c := range th.CCP {
		if strings.Contains(c.String(), "(-1 == s_total.next_global)") {
			found = true
			if i < b[0].CCP || i >= b[1].CCP {
				t.Errorf("the ordering conjunct (%d) lies outside the bounce segment %+v", i, b)
			}
		}
	}
	if !found {
		t.Fatalf("expected the unsatisfiable ordering conjunct; CCP = %v", th.CCP)
	}
	// The segment sits in the middle of every list: the layers below
	// local thread after it.
	if b[1].CCP == len(th.CCP) || b[1].Updates == len(th.Updates) || b[0].Updates == b[1].Updates {
		t.Fatalf("bounce segment %+v is not in the middle of %d conjuncts and %d updates", b, len(th.CCP), len(th.Updates))
	}
	// The theorem without its segment is the wire side alone: the wire
	// signature is the same, since the bounce pushes no header...
	wire := *th
	wire.CCP = slices.Concat(th.CCP[:b[0].CCP], th.CCP[b[1].CCP:])
	wire.Updates = slices.Concat(th.Updates[:b[0].Updates], th.Updates[b[1].Updates:])
	sigA, sigB := SignatureOf(th), SignatureOf(&wire)
	if sigA.ID() != sigB.ID() {
		t.Fatalf("the wire side has a different signature: %#x vs %#x", sigA.ID(), sigB.ID())
	}
	// ...and no conjunct or update left in it touches the bounce's
	// ordering state.
	for _, c := range wire.CCP {
		if strings.Contains(c.String(), "next_global") {
			t.Errorf("wire conjunct %s reads the bounce's ordering state", c)
		}
	}
	for _, u := range wire.Updates {
		if strings.Contains(u.Target.String(), "next_global") {
			t.Errorf("wire update %s := %s writes the bounce's ordering state", u.Target, u.Val)
		}
	}
	// The stamped order is the unordered sentinel.
	e := sigB.Entry("total")
	var gseq *SigField
	for i := range e.Fields {
		if e.Fields[i].Name == "gseq" {
			gseq = &e.Fields[i]
		}
	}
	if gseq == nil || !gseq.Const || gseq.Val != -1 {
		t.Fatalf("non-sequencer gseq not the constant -1: %+v", e)
	}
}

func TestComposeUpCastStack10(t *testing.T) {
	dn, err := ComposeDn(layers.Stack10(), ir.DnCast, 0, 2)
	if err != nil {
		t.Fatalf("ComposeDn: %v", err)
	}
	sig := SignatureOf(dn)
	t.Logf("signature id=%#x varying=%v", sig.ID(), sig.Varying())
	up, err := ComposeUp(layers.Stack10(), ir.UpCast, 1, 2, sig)
	if err != nil {
		t.Fatalf("ComposeUp: %v", err)
	}
	t.Logf("\n%s", up)
	if !up.Delivered {
		t.Fatal("up bypass must deliver to the application")
	}
	// mnak's seqno and total's lseq/gseq vary; everything else is
	// constant and vanishes into the stack identifier.
	if got := len(sig.Varying()); got != 3 {
		t.Errorf("varying fields = %d (%v), want 3 (mnak.seqno, total.lseq, total.gseq)",
			got, sig.Varying())
	}
}

func TestComposeSendPathsStack10(t *testing.T) {
	dn, err := ComposeDn(layers.Stack10(), ir.DnSend, 0, 2)
	if err != nil {
		t.Fatalf("ComposeDn send: %v", err)
	}
	t.Logf("\n%s", dn)
	sig := SignatureOf(dn)
	up, err := ComposeUp(layers.Stack10(), ir.UpSend, 1, 2, sig)
	if err != nil {
		t.Fatalf("ComposeUp send: %v", err)
	}
	if !up.Delivered {
		t.Fatal("send up bypass must deliver")
	}
	if got := len(sig.Varying()); got != 2 {
		t.Errorf("varying fields = %d (%v), want 2 (pt2pt seqno+ack)", got, sig.Varying())
	}
}

func TestComposeStack4(t *testing.T) {
	for _, rank := range []int{0, 1} {
		dn, err := ComposeDn(layers.Stack4(), ir.DnCast, rank, 2)
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		if dn.SelfDeliver {
			t.Error("stack4 has no local layer; no self-delivery expected")
		}
		sig := SignatureOf(dn)
		if _, err := ComposeUp(layers.Stack4(), ir.UpCast, 1-rank, 2, sig); err != nil {
			t.Fatalf("up rank %d: %v", 1-rank, err)
		}
	}
}

// TestWireSignatureDeterminism: both ends derive the compressed format
// independently; the identifiers must be stable across derivations and
// distinct across paths.
func TestWireSignatureDeterminism(t *testing.T) {
	ids := map[uint16]string{}
	for i := 0; i < 3; i++ {
		for _, path := range []ir.PathKey{ir.DnCast, ir.DnSend} {
			th, err := ComposeDn(layers.Stack10(), path, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			sig := SignatureOf(th)
			id := sig.ID()
			if prev, seen := ids[id]; seen && prev != path.String() {
				t.Fatalf("id %#x collides between %s and %s", id, prev, path)
			}
			ids[id] = path.String()
		}
	}
	if len(ids) != 2 {
		t.Fatalf("expected 2 distinct ids, got %d", len(ids))
	}
	// The sequencer's cast signature differs from a 4-layer cast's.
	th4, err := ComposeDn(layers.Stack4(), ir.DnCast, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	sig4 := SignatureOf(th4)
	if id := sig4.ID(); ids[id] != "" {
		t.Fatalf("stack4 signature id %#x collides with a stack10 id", id)
	}
}

// TestTheoremRenderingStable: the paper-style rendering is deterministic
// (Table 2(b)'s size metric depends on it).
func TestTheoremRenderingStable(t *testing.T) {
	a, err := ComposeDn(layers.Stack10(), ir.DnCast, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ComposeDn(layers.Stack10(), ir.DnCast, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("composed theorem rendering is nondeterministic")
	}
}
