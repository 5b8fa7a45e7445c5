package layers

import (
	"reflect"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/transport"
)

// allHeaderVariants lists one of every header variant every component
// can push (twice where a field's sign or absence changes the encoding).
// Pooled headers come fresh from their pools: the caller owns them.
func allHeaderVariants() []event.Header {
	return append(membershipVariants(),
		bottomHdr{},
		&mnakData{Seqno: 12345}, mnakPass{}, mnakNak{Lo: -3, Hi: 900}, mnakRetrans{Seqno: 7},
		&p2pData{Seqno: 3, Ack: 2}, p2pRetrans{Seqno: 5, Ack: 4}, p2pAck{Ack: 9}, p2pPass{},
		p2pwData{}, p2pwAck{Count: 17}, p2pwPass{},
		mflowData{}, mflowCredit{Bytes: 65536}, mflowPass{},
		fragSolo{}, fragFrag{Idx: 3, Of: 9},
		collectPass{},
		localHdr{}, topHdr{}, paplHdr{},
		&totalData{LocalSeq: 11, GSeq: -1}, &totalData{LocalSeq: 11, GSeq: 42},
		totalOrder{Origin: 2, LocalSeq: 5, GSeq: 6}, totalPass{},
		suspectPass{}, suspectPing{},
		&seqnoData{Seqno: 77}, seqnoPass{},
		chkHdr{Sum: 0xDEADBEEF},
		traceHdr{},
	)
}

// membershipVariants lists every header the membership layer can emit.
func membershipVariants() []event.Header {
	return []event.Header{
		membPass{},
		membFlushTree{ViewSeq: 4, Round: 2, Frontier: []int64{1, 2, 3}, Excluded: []int32{0, 2}},
		membFlushTree{ViewSeq: 4, Round: 2}, // first round: no frontier, nobody excluded
		membFlushAgg{ViewSeq: 4, Round: 2, Count: 5, Mismatch: true, Vector: []int64{9, 8}, Max: []int64{9, 11}},
		membFlushAgg{ViewSeq: 4, Round: 2, Count: 1},
		membView{ViewSeq: 5, Members: []event.Addr{1, 2, 9}},
		membLeave{Rank: 3},
	}
}

// TestMembershipReadHdrClassifiesEveryVariant: the layer's IR definition
// must recognise every header the layer can emit (control variants fall
// back to the full stack, but only once ReadHdr has named their tag).
func TestMembershipReadHdrClassifiesEveryVariant(t *testing.T) {
	def, err := ir.LookupDef(Membership)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range membershipVariants() {
		var w transport.Writer
		if err := transport.EncodeHeader(h, &w); err != nil {
			t.Fatalf("%s: %v", h.HdrString(), err)
		}
		fields, err := def.ReadHdr(h)
		if err != nil {
			t.Fatalf("%s: %v", h.HdrString(), err)
		}
		// EncodeHeader writes the layer ID, then the variant tag.
		if wire := int64(w.Header()[1]); fields["tag"] != wire {
			t.Fatalf("%s: ReadHdr says tag %d, the wire says %d", h.HdrString(), fields["tag"], wire)
		}
	}
}

// TestMembershipRetiredTagsAreBadWire: tags 1 and 2 were the
// coordinator-direct flush and its acknowledgement. No current header
// may decode from them.
func TestMembershipRetiredTagsAreBadWire(t *testing.T) {
	ev := event.Alloc()
	ev.Type = event.ECast
	ev.Msg.Push(membPass{})
	var w transport.Writer
	if err := transport.Marshal(ev, 1, &w); err != nil {
		t.Fatal(err)
	}
	event.Free(ev)
	img := append([]byte(nil), w.Bytes()...)
	tagAt := len(img) - 1 // membPass is one tag byte and there is no payload
	if img[tagAt] != membTagPass {
		t.Fatalf("image does not end in the Pass tag: % x", img)
	}
	for _, tag := range []byte{1, 2} {
		img[tagAt] = tag
		if got, err := transport.Unmarshal(img); err == nil {
			t.Fatalf("retired tag %d decoded to %s", tag, got.Msg.Headers[0].HdrString())
		}
	}
}

// Every header variant of every component must survive the wire. The
// integration suites exercise the common variants; this pins all of
// them, including the control headers.
func TestAllHeaderVariantsRoundtrip(t *testing.T) {
	variants := allHeaderVariants()
	for _, h := range variants {
		ev := event.Alloc()
		ev.Type = event.ECast
		ev.Msg.Payload = []byte{1, 2, 3}
		ev.Msg.Push(h)
		var w transport.Writer
		if err := transport.Marshal(ev, 1, &w); err != nil {
			t.Fatalf("%s: marshal: %v", h.HdrString(), err)
		}
		got, err := transport.Unmarshal(w.Bytes())
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", h.HdrString(), err)
		}
		if len(got.Msg.Headers) != 1 {
			t.Fatalf("%s: %d headers decoded", h.HdrString(), len(got.Msg.Headers))
		}
		back := got.Msg.Pop()
		if !equalHeader(h, back) {
			t.Fatalf("roundtrip mismatch:\n sent %#v\n got  %#v", h, back)
		}
		event.Free(ev)
		event.Free(got)
	}
	// The sign header roundtrips too (it carries a fixed-size tag).
	var mac [32]byte
	for i := range mac {
		mac[i] = byte(i * 3)
	}
	ev := event.Alloc()
	ev.Type = event.ESend
	ev.Msg.Push(signHdr{Mac: mac})
	var w transport.Writer
	if err := transport.Marshal(ev, 0, &w); err != nil {
		t.Fatal(err)
	}
	got, err := transport.Unmarshal(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Msg.Pop() != (signHdr{Mac: mac}) {
		t.Fatal("sign header mangled")
	}
	event.Free(ev)
	event.Free(got)
}

// equalHeader compares headers structurally; variants carrying slices
// (frontiers, vectors, member lists) need DeepEqual with nil/empty
// slices treated alike.
func equalHeader(a, b event.Header) bool {
	if reflect.DeepEqual(a, b) {
		return true
	}
	// A nil slice encodes as empty and may decode as empty-non-nil.
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	if av.Type() != bv.Type() || av.Kind() != reflect.Struct {
		return false
	}
	for i := 0; i < av.NumField(); i++ {
		af, bf := av.Field(i), bv.Field(i)
		if af.Kind() == reflect.Slice && af.Len() == 0 && bf.Len() == 0 {
			continue
		}
		if !reflect.DeepEqual(af.Interface(), bf.Interface()) {
			return false
		}
	}
	return true
}

// TestGossipVectorRoundtrip: collect's gossip vector is the one header
// with a variable body large enough to matter.
func TestGossipVectorRoundtrip(t *testing.T) {
	vec := make([]int64, 64)
	for i := range vec {
		vec[i] = int64(i * i)
	}
	ev := event.Alloc()
	ev.Type = event.ECast
	ev.Msg.Push(collectGossip{Vector: vec})
	var w transport.Writer
	if err := transport.Marshal(ev, 2, &w); err != nil {
		t.Fatal(err)
	}
	got, err := transport.Unmarshal(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	back := got.Msg.Pop().(collectGossip)
	if !reflect.DeepEqual(back.Vector, vec) {
		t.Fatal("gossip vector mangled")
	}
	event.Free(ev)
	event.Free(got)
}
