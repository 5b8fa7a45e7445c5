package opt

import (
	"strings"
	"testing"

	"ensemble/internal/ir"
	"ensemble/internal/layers"
)

// TestVerifyAllLayerTheorems re-checks every derivable layer theorem
// against the IR interpreter on randomized CCP-satisfying frames, and
// every composed up theorem at each of its layer boundaries — the
// "every rewrite accompanied by a proof" discipline, realized as
// exhaustive re-interpretation.
func TestVerifyAllLayerTheorems(t *testing.T) {
	for _, names := range [][]string{layers.Stack10(), layers.Stack4(), layers.StackVsync()} {
		if err := VerifyAll(names, 3, 200, 42); err != nil {
			t.Fatalf("VerifyAll(%v): %v", names, err)
		}
	}
}

// TestVerifyCatchesWrongTheorem plants a deliberately wrong theorem (a
// stale sequence-number update) and requires the verifier to reject it.
func TestVerifyCatchesWrongTheorem(t *testing.T) {
	def, err := ir.LookupDef(layers.Mnak)
	if err != nil {
		t.Fatal(err)
	}
	base := NewFacts()
	base.AddEq(ir.EvField("rank"), 0)
	base.AddEq(ir.EvField("appl"), 1)
	th, err := DeriveLayerTheorem(def, ir.DnCast, def.CCP[ir.DnCast], base)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the update: my_seq += 2 instead of += 1.
	for i, u := range th.Updates {
		if u.Target == ir.Var("my_seq") {
			th.Updates[i].Val = ir.Add(ir.Var("my_seq"), ir.Const(2))
		}
	}
	_, err = VerifyLayerTheorem(def, th, 3, 0, 100, 7)
	if err == nil {
		t.Fatal("corrupted theorem passed verification")
	}
	if !strings.Contains(err.Error(), "state mismatch") {
		t.Fatalf("unexpected rejection: %v", err)
	}
}

// TestVerifyCatchesWrongHeader corrupts a header field expression.
func TestVerifyCatchesWrongHeader(t *testing.T) {
	def, err := ir.LookupDef(layers.Pt2pt)
	if err != nil {
		t.Fatal(err)
	}
	base := NewFacts()
	base.AddEq(ir.EvField("rank"), 0)
	base.AddEq(ir.EvField("appl"), 1)
	th, err := DeriveLayerTheorem(def, ir.DnSend, def.CCP[ir.DnSend], base)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range th.Push.Fields {
		if f.Name == "seqno" {
			th.Push.Fields[i].Val = ir.Add(f.Val, ir.Const(1)) // off by one
		}
	}
	_, err = VerifyLayerTheorem(def, th, 3, 0, 100, 9)
	if err == nil || !strings.Contains(err.Error(), "header mismatch") {
		t.Fatalf("corrupted header not caught: %v", err)
	}
}

// TestVerifyCatchesDroppedEffect removes the deferred buffering.
func TestVerifyCatchesDroppedEffect(t *testing.T) {
	def, err := ir.LookupDef(layers.Mnak)
	if err != nil {
		t.Fatal(err)
	}
	base := NewFacts()
	base.AddEq(ir.EvField("rank"), 0)
	base.AddEq(ir.EvField("appl"), 1)
	th, err := DeriveLayerTheorem(def, ir.DnCast, def.CCP[ir.DnCast], base)
	if err != nil {
		t.Fatal(err)
	}
	th.Effects = nil
	_, err = VerifyLayerTheorem(def, th, 3, 0, 100, 11)
	if err == nil || !strings.Contains(err.Error(), "effects") {
		t.Fatalf("dropped effect not caught: %v", err)
	}
}

// upCastTheorem composes rank 2's up theorem for rank 1's casts on the
// 10-layer stack: unordered data, which total parks.
func upCastTheorem(t *testing.T) (*StackTheorem, WireSig) {
	t.Helper()
	dn, err := ComposeDn(layers.Stack10(), ir.DnCast, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	sig := SignatureOf(dn)
	th, err := ComposeUp(layers.Stack10(), ir.UpCast, 2, 3, sig)
	if err != nil {
		t.Fatal(err)
	}
	if th.Park == nil {
		t.Fatalf("the theorem does not park:\n%s", th)
	}
	if err := VerifyUpTheorem(th, sig, 2000, 5); err != nil {
		t.Fatalf("the genuine theorem fails: %v", err)
	}
	return th, sig
}

// TestVerifyCatchesWeakPrefix drops a conjunct of a whole theorem: the
// compiled path would then run where a layer itself falls back.
func TestVerifyCatchesWeakPrefix(t *testing.T) {
	th, sig := upCastTheorem(t)
	// Conjunct 1 is mnak's (bottom's is 0).
	th.CCP = append(append([]ir.Expr(nil), th.CCP[:1]...), th.CCP[2:]...)
	err := VerifyUpTheorem(th, sig, 2000, 5)
	if err == nil || !strings.Contains(err.Error(), "mnak falls back") {
		t.Fatalf("dropped conjunct not caught: %v", err)
	}
}
