package opt

import (
	"bytes"
	"slices"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/layer"
	"ensemble/internal/layers"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// TestRetainedArrivalOutlivesRecycling: a plain member rebuilds a
// compressed arrival's headers and writes their encoding into storage
// the event owns, reused once the event is freed. mnak retains the cast
// from that encoding; a thousand later arrivals then recycle events and
// their encoding storage. The retransmission the member serves for the
// first cast must still be byte for byte the one it served right after
// the arrival. The cast is larger than a log slab, the size a log keeps
// by reference when the bytes allow it.
func TestRetainedArrivalOutlivesRecycling(t *testing.T) {
	const n, later = 3, 1000
	first := make([]byte, 3000)
	for i := range first {
		first[i] = byte(i*7 + 1)
	}
	type wire struct {
		to   int
		data []byte
	}
	var (
		engs      [n]*Engine
		q         []wire
		lost      = true // the first cast's copy to member 2
		naks      [][]byte
		answering bool
		answers   [][]byte
	)
	for m := range engs {
		eng, err := NewStackEngine(layers.StackVsync(), layer.DefaultConfig(testView(n, m)), stack.Func)
		if err != nil {
			t.Fatal(err)
		}
		eng.SendWire = func(cast bool, dst int, data []byte) {
			data = slices.Clone(data)
			if answering {
				if m == 1 && variantOf(t, data, layers.Mnak) == "Retrans" {
					answers = append(answers, data)
				}
				return
			}
			if m == 2 && !cast && variantOf(t, data, layers.Mnak) == "Nak" {
				naks = append(naks, data)
			}
			for to := range n {
				switch {
				case to == m || !cast && to != dst:
				case cast && m == 0 && to == 2 && lost:
					lost = false
				default:
					q = append(q, wire{to, data})
				}
			}
		}
		engs[m] = eng
	}
	pump := func() {
		for len(q) > 0 {
			w := q[0]
			q = q[1:]
			if !engs[w.to].Packet(w.data) {
				t.Fatalf("member %d could not decode % x", w.to, w.data)
			}
		}
	}
	// ask delivers member 2's NAK to member 1 and returns member 1's
	// retransmissions.
	ask := func() [][]byte {
		answering, answers = true, nil
		engs[1].Packet(naks[0])
		answering = false
		return answers
	}

	engs[0].Cast(first)
	pump()
	if st := engs[1].Stats(); st.Uncompressed != 1 || st.UpFull != 1 {
		t.Fatalf("member 1 decoded the first cast as %+v, want one compressed arrival rebuilt by the table", st)
	}
	engs[0].Cast([]byte("second"))
	pump()
	if len(naks) == 0 {
		t.Fatal("member 2 did not NAK the cast it lost")
	}
	before := ask()
	if len(before) != 1 || !bytes.HasSuffix(before[0], first) {
		t.Fatalf("member 1 answered the NAK with %d retransmissions, want the first cast", len(before))
	}
	arrived := engs[1].Stats().Uncompressed
	for i := range later {
		engs[0].Cast([]byte{byte(i), byte(i >> 8), 0xA5, 0x5A})
		pump()
	}
	if got := engs[1].Stats().Uncompressed - arrived; got < later {
		t.Fatalf("member 1 rebuilt %d later arrivals, want %d", got, later)
	}
	after := ask()
	if len(after) != 1 || !bytes.Equal(after[0], before[0]) {
		t.Fatalf("after %d more arrivals the retransmission of the first cast is\n% x\nwant\n% x", later, after, before[0])
	}
}

// variantOf is the variant of layer's header on a full wire image, ""
// for a compressed image or none.
func variantOf(t *testing.T, data []byte, layer string) string {
	t.Helper()
	if len(data) == 0 || data[0] == transport.WireCompressed {
		return ""
	}
	ev, err := transport.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	defer event.Free(ev)
	def, err := ir.LookupDef(layer)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range ev.Msg.Headers {
		if h.Layer() != layer {
			continue
		}
		for i := range def.Hdrs {
			if _, ok := def.Hdrs[i].Read(h, nil); ok {
				return def.Hdrs[i].Variant
			}
		}
	}
	return ""
}
