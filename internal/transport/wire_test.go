package transport

import (
	"bytes"
	"testing"
	"testing/quick"
)

// Property: every value written is read back identically, in order.
func TestWriterReaderRoundtrip(t *testing.T) {
	f := func(b1 byte, u uint64, v int64, flag bool, blob []byte, payload []byte) bool {
		var w Writer
		w.Byte(b1)
		w.Uvarint(u)
		w.Varint(v)
		w.Bool(flag)
		w.Bytes64(blob)
		w.SetPayload(payload)
		r := NewReader(w.Bytes())
		ok := r.Byte() == b1 &&
			r.Uvarint() == u &&
			r.Varint() == v &&
			r.Bool() == flag &&
			bytes.Equal(r.Bytes64(), blob) &&
			bytes.Equal(r.Rest(), payload) &&
			r.Err() == nil
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReaderTruncation(t *testing.T) {
	var w Writer
	w.Uvarint(1 << 40)
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.Uvarint()
		if r.Err() == nil {
			t.Fatalf("truncation at %d undetected", cut)
		}
	}
}

func TestReaderBytes64Truncation(t *testing.T) {
	var w Writer
	w.Bytes64(make([]byte, 100))
	full := w.Bytes()
	r := NewReader(full[:50])
	if r.Bytes64() != nil || r.Err() == nil {
		t.Fatal("truncated Bytes64 undetected")
	}
}

// TestReaderBytes64HugeLength: a length prefix that does not fit in an
// int is a corrupt image, not a slice bound to panic on.
func TestReaderBytes64HugeLength(t *testing.T) {
	var w Writer
	w.Uvarint(1<<63 + 6)
	w.Byte(0)
	r := NewReader(w.Bytes())
	if r.Bytes64() != nil || r.Err() == nil {
		t.Fatal("a length past 2^63 was not reported")
	}
}

func TestWriterReset(t *testing.T) {
	var w Writer
	w.Byte(1)
	w.SetPayload([]byte{9})
	w.Reset()
	if w.HeaderLen() != 0 || len(w.Bytes()) != 0 {
		t.Fatal("Reset left residue")
	}
}

func TestAppendTo(t *testing.T) {
	var w Writer
	w.Byte(0xAB)
	w.SetPayload([]byte{1, 2})
	out := w.AppendTo([]byte{0xFF})
	if !bytes.Equal(out, []byte{0xFF, 0xAB, 1, 2}) {
		t.Fatalf("AppendTo = %v", out)
	}
}

func TestReaderRemaining(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.Byte()
	if r.Remaining() != 2 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
}
