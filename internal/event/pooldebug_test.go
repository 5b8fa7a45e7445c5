package event

import (
	"strings"
	"testing"
)

// pdHdr is a pooled header for exercising the debug machinery without
// depending on the layers package.
type pdHdr struct{ V int64 }

var pdHdrPool HdrPool[pdHdr]

func newPdHdr(v int64) *pdHdr {
	h := pdHdrPool.Get()
	h.V = v
	return h
}

func (*pdHdr) Layer() string       { return "pd" }
func (*pdHdr) WireID() byte        { return 0 }
func (h *pdHdr) HdrString() string { return "pd:Hdr" }
func (h *pdHdr) CloneHdr() Header  { return newPdHdr(h.V) }
func (h *pdHdr) FreeHdr()          { pdHdrPool.Put(h) }

func mustPanicWith(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want panic containing %q", substr)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v; want panic containing %q", r, substr)
		}
	}()
	f()
}

// A double Free of an event silently recycles an object two owners
// believe they hold; debug mode turns it into a deterministic panic.
func TestDebugDoubleFreePanics(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	ev := Alloc()
	Free(ev)
	mustPanicWith(t, "double-put", func() { Free(ev) })
}

func TestDebugHdrDoublePutPanics(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	h := newPdHdr(7)
	h.FreeHdr()
	mustPanicWith(t, "double-put", func() { h.FreeHdr() })
}

// Writing to an object after returning it to the pool disturbs the
// poison canary; PoolDebugCheck's quarantine sweep reports it.
func TestDebugUseAfterPutDetected(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	ev := Alloc()
	Free(ev)
	if err := PoolDebugCheck(); err != nil {
		t.Fatalf("clean quarantine reported dirty: %v", err)
	}
	ev.Time = 42 // use after put: disturbs the poison canary
	if err := PoolDebugCheck(); err == nil {
		t.Fatal("mutation after Free not detected")
	}

	SetPoolDebug(true) // reset bookkeeping
	h := newPdHdr(1)
	h.FreeHdr()
	h.V = 99 // use after put
	if err := PoolDebugCheck(); err == nil {
		t.Fatal("header mutation after Put not detected")
	}
}

// Free releases every header still on the event's stack — exactly once
// each, which debug mode verifies.
func TestDebugFreeReleasesHeaders(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	ev := Alloc()
	ev.Msg.Push(newPdHdr(1))
	ev.Msg.Push(newPdHdr(2))
	Free(ev)
	st := DebugPoolStats()
	if st.LiveEvents != 0 || st.LiveHeaders != 0 {
		t.Fatalf("objects leaked through Free: %+v", st)
	}
	if err := PoolDebugCheck(); err != nil {
		t.Fatal(err)
	}
}

// Dup must deep-clone pooled headers: freeing the original and the copy
// releases each header exactly once.
func TestDupIndependentOwnership(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	ev := Alloc()
	ev.Type = ECast
	ev.Msg.Payload = []byte("x")
	ev.Msg.Push(newPdHdr(5))
	d := Dup(ev)
	if h, ok := d.Msg.Top().(*pdHdr); !ok || h.V != 5 {
		t.Fatalf("dup header = %v", d.Msg.Top())
	}
	if d.Msg.Top() == ev.Msg.Top() {
		t.Fatal("Dup aliased a pooled header")
	}
	Free(ev)
	Free(d) // would panic on double-put if the stacks aliased
	if st := DebugPoolStats(); st.LiveEvents != 0 || st.LiveHeaders != 0 {
		t.Fatalf("leak after freeing original and dup: %+v", st)
	}
}

// AppendClonedHeaders is the only safe way to copy a header stack; this
// pins the ownership contract the data path relies on.
func TestAppendClonedHeadersOwnership(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	src := []Header{newPdHdr(1), NoHdr{L: "v"}, newPdHdr(2)}
	dst := AppendClonedHeaders(nil, src)
	if len(dst) != 3 {
		t.Fatalf("cloned %d headers, want 3", len(dst))
	}
	if dst[0] == src[0] || dst[2] == src[2] {
		t.Fatal("pooled header aliased instead of cloned")
	}
	if dst[1] != src[1] {
		t.Fatal("value header should be shared as-is")
	}
	for _, h := range src {
		FreeHeader(h)
	}
	for _, h := range dst {
		FreeHeader(h)
	}
	if st := DebugPoolStats(); st.LiveHeaders != 0 {
		t.Fatalf("leak after freeing both stacks: %+v", st)
	}
}

// DebugPoolStats tracks the live-object balance the leak tests assert
// on.
func TestDebugStatsBalance(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	evs := make([]*Event, 4)
	for i := range evs {
		evs[i] = Alloc()
	}
	hs := []*pdHdr{newPdHdr(1), newPdHdr(2)}
	st := DebugPoolStats()
	if st.LiveEvents != 4 || st.LiveHeaders != 2 {
		t.Fatalf("stats = %+v, want 4 events, 2 headers", st)
	}
	for _, ev := range evs {
		Free(ev)
	}
	for _, h := range hs {
		h.FreeHdr()
	}
	if st := DebugPoolStats(); st.LiveEvents != 0 || st.LiveHeaders != 0 {
		t.Fatalf("stats after frees = %+v, want zero", st)
	}
}
