package opt_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ensemble/internal/bench"
	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/layer"
	"ensemble/internal/layers"
	"ensemble/internal/opt"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// TestSignatureTableDecodesAsTLV is the admission differential: for
// every signature a member of the view can send, at every receiving
// rank, the header stack the signature table rebuilds from a compressed
// arrival — with random wire fields, the int64 extremes among them — is
// header for header the one transport.UnmarshalFor decodes from the same
// stack marshaled as TLV, which it must admit; and the TLV image the
// table records for retention is the bytes UnmarshalFor read. The
// expected stack is built from the signature alone, not from the table.
func TestSignatureTableDecodesAsTLV(t *testing.T) {
	stacks := map[string][]string{
		"Stack4":     layers.Stack4(),
		"StackFifo":  layers.StackFifo(),
		"Stack10":    layers.Stack10(),
		"StackVsync": layers.StackVsync(),
		"ScaleStack": bench.ScaleStack(),
	}
	rng := rand.New(rand.NewSource(45))
	extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
	var w transport.Writer
	for _, name := range []string{"Stack4", "StackFifo", "Stack10", "StackVsync", "ScaleStack"} {
		names := stacks[name]
		wireIDs := transport.StackIDs(names)
		for _, n := range []int{2, 8, 64} {
			sigs := opt.Sendable(names, n)
			var ids []uint16
			for id := range sigs {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			for rank := range n {
				eng, err := opt.NewStackEngine(names, layer.DefaultConfig(viewOf(n, rank)), stack.Func)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range ids {
					sig := sigs[id]
					for trial := range 3 {
						vary := make([]int64, len(sig.Varying()))
						for i := range vary {
							if trial == 0 {
								vary[i] = extremes[rng.Intn(len(extremes))]
							} else {
								vary[i] = rng.Int63() - rng.Int63()
							}
						}
						sender := rng.Intn(n)
						payload := []byte(fmt.Sprintf("p%d", trial))
						where := fmt.Sprintf("%s n%d rank %d: %s %s.%s (id %#04x) fields %v", name, n, rank, sig.Path, sig.Entries[0].Layer, sig.Entries[0].Variant, id, vary)

						got, ok := eng.Rebuild(compressedWith(id, sender, vary, payload))
						if !ok {
							t.Fatalf("%s: the compressed arrival did not decode", where)
						}
						want := tlvArrival(t, sig, len(names), sender, vary, payload, wireIDs, &w)
						if msg := sameArrival(got, want); msg != "" {
							t.Fatalf("%s: %s", where, msg)
						}
						event.Free(got)
						event.Free(want)
					}
				}
			}
		}
	}
}

// viewOf is the view of n members as rank sees it.
func viewOf(n, rank int) *event.View {
	addrs := make([]event.Addr, n)
	for i := range addrs {
		addrs[i] = event.Addr(i + 1)
	}
	return event.NewView("sigcodec", 1, addrs, rank)
}

// compressedWith is a compressed arrival of signature id from sender.
func compressedWith(id uint16, sender int, vary []int64, payload []byte) []byte {
	wire := []byte{transport.WireCompressed, byte(id), byte(id >> 8)}
	wire = binary.AppendUvarint(wire, uint64(sender))
	for _, v := range vary {
		wire = binary.AppendVarint(wire, v)
	}
	return append(wire, payload...)
}

// tlvArrival builds the header stack sig denotes with the given wire
// fields from the layers' header specs, marshals it as TLV and decodes
// it with UnmarshalFor, which must admit it.
func tlvArrival(t *testing.T, sig opt.WireSig, depth, sender int, vary []int64, payload []byte, wireIDs []byte, w *transport.Writer) *event.Event {
	t.Helper()
	ev := event.Alloc()
	ev.Dir, ev.Type, ev.ApplMsg = event.Dn, sig.Path.Kind, len(sig.Entries) == depth
	ev.Msg.Payload = payload
	k := 0
	for _, en := range sig.Entries {
		def, err := ir.LookupDef(en.Layer)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := def.HdrSpecByVariant(en.Variant)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]int64, len(spec.Fields))
		for _, f := range en.Fields {
			j := slices.Index(spec.Fields, f.Name)
			if f.Const {
				vals[j] = f.Val
			} else {
				vals[j], k = vary[k], k+1
			}
		}
		ev.Msg.Push(spec.Make(vals))
	}
	if err := transport.Marshal(ev, sender, w); err != nil {
		t.Fatal(err)
	}
	event.Free(ev)
	got, err := transport.UnmarshalFor(w.Bytes(), wireIDs)
	if err != nil {
		t.Fatalf("UnmarshalFor does not admit %s %s.%s as TLV: %v", sig.Path, sig.Entries[0].Layer, sig.Entries[0].Variant, err)
	}
	return got
}

// sameArrival describes how two decoded arrivals differ, "" when they
// do not: kind, origin, flag, payload, each header's layer, type and
// field values, and the encoding on record for retention.
func sameArrival(got, want *event.Event) string {
	if got.Type != want.Type || got.Peer != want.Peer || got.ApplMsg != want.ApplMsg || !bytes.Equal(got.Msg.Payload, want.Msg.Payload) {
		return fmt.Sprintf("event %v appl=%v, want %v appl=%v", got, got.ApplMsg, want, want.ApplMsg)
	}
	if len(got.Msg.Headers) != len(want.Msg.Headers) {
		return fmt.Sprintf("%d headers, want %d", len(got.Msg.Headers), len(want.Msg.Headers))
	}
	for i, h := range got.Msg.Headers {
		wh := want.Msg.Headers[i]
		def, err := ir.LookupDef(h.Layer())
		if err != nil || h.Layer() != wh.Layer() || reflect.TypeOf(h) != reflect.TypeOf(wh) {
			return fmt.Sprintf("header %d is %s, want %s", i, h.HdrString(), wh.HdrString())
		}
		gv, err1 := def.ReadHdr(h)
		wv, err2 := def.ReadHdr(wh)
		if err1 != nil || err2 != nil || !maps.Equal(gv, wv) {
			return fmt.Sprintf("header %d is %s %v, want %s %v", i, h.HdrString(), gv, wh.HdrString(), wv)
		}
	}
	gi, ok1 := got.Msg.EncodedHeaders()
	wi, ok2 := want.Msg.EncodedHeaders()
	if !ok1 || !ok2 || !bytes.Equal(gi, wi) {
		return fmt.Sprintf("retention image % x (recorded %v), want % x", gi, ok1, wi)
	}
	return ""
}

// TestSecondEngineBuildsNoTable: the signature table is derived once per
// process for a stack and a view size, and every later engine of that
// shape only looks it up. A second plain engine of the 64-member scale
// stack may allocate at most what NewStackEngine allocated before it had
// a table (106 objects, measured the same way) plus the lookup's key.
func TestSecondEngineBuildsNoTable(t *testing.T) {
	if event.PoolDebugEnabled() {
		t.Skip("pool debugging allocates every event and header")
	}
	const before, lookup = 106, 4
	cfg := layer.DefaultConfig(viewOf(64, 5))
	if _, err := opt.NewStackEngine(bench.ScaleStack(), cfg, stack.Func); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := opt.NewStackEngine(bench.ScaleStack(), cfg, stack.Func); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a second engine allocates %.0f objects", allocs)
	if allocs > before+lookup {
		t.Errorf("a second engine allocates %.0f objects, want at most %d", allocs, before+lookup)
	}
}
