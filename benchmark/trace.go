package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"ensemble/internal/core"
	"ensemble/internal/event"
)

// The tracer records spans from outside the program: every span is
// opened and closed in the benchmark's own files, around a call into one
// of the program's public functions. A tracer belongs to one goroutine —
// the simulator's, or one UDP member's Run goroutine — and so needs no
// lock; spans nest by call order, which gives each its parent.

type spanName uint16

// The fixed span names; layer handler spans are added by name at build.
const (
	spanSched       spanName = iota // Cluster.Run, one slice of virtual time
	spanCastCall                    // Member.Cast, from the benchmark's submit
	spanReceive                     // the member's Attach callback, one wire
	spanDeliver                     // Handlers.OnCast: the benchmark's own checker
	spanTimer                       // a Clock.After callback
	spanDrainFlush                  // the SetDrainFlush hook at a drain barrier
	spanNetSend                     // Network.Send on the substrate
	spanNetCast                     // Network.Cast on the substrate
	spanOtherUpcall                 // every other Handlers upcall
	spanMemberBuild                 // core.NewMember / NewOptimizedMember
	numFixedSpans
)

var fixedSpanNames = [numFixedSpans]string{
	"netsim.sched", "core.cast_call", "core.receive", "app.deliver", "core.timer",
	"core.drain_flush", "net.send", "net.cast", "app.upcall", "core.member_build",
}

// span is one recorded interval; times are ns since the tracer started.
type span struct {
	name       spanName
	parent     int32 // index of the enclosing span, -1 at top level
	msg        int64 // cast index the span worked on, -1 when unknown
	start, end int64
}

// spanTotals aggregates every span of one name, recorded or not.
type spanTotals struct {
	calls int64
	total int64 // ns, children included
	self  int64 // ns, children excluded
}

type rootCell struct{ calls, self int64 }

type openSpan struct {
	name  spanName
	root  spanName // the entry into the program this span ran under
	rec   int32    // index in spans, -1 once the buffer is full
	start int64
	child int64 // ns spent in spans opened inside this one
}

// maxSpans bounds the spans kept whole (40 B each) when a span file was
// asked for; totals count every span either way.
const maxSpans = 1 << 18

type tracer struct {
	base   time.Time
	names  []string
	totals []spanTotals
	// byRoot[root][name] counts the spans called name that ran under an
	// entry span called root (a span directly under the scheduler, or
	// with nothing above it, is its own root), and their self time. It
	// says how much of a layer's time belongs to casts, to receives, to
	// timers.
	byRoot [][]rootCell
	stack  []openSpan
	spans  []span
}

// newTracer builds a tracer; keep makes it hold the first maxSpans spans
// whole, for writeSpans, and not only their totals.
func newTracer(keep bool) *tracer {
	t := &tracer{base: time.Now(), names: append([]string(nil), fixedSpanNames[:]...)}
	if keep {
		// All at once: a slice that grows mid-run charges its copying to
		// whichever span is open.
		t.spans = make([]span, 0, maxSpans)
	}
	t.totals = make([]spanTotals, len(t.names))
	t.byRoot = make([][]rootCell, len(t.names))
	for i := range t.byRoot {
		t.byRoot[i] = make([]rootCell, len(t.names))
	}
	return t
}

// name registers a span name (idempotent) and returns its id.
func (t *tracer) name(s string) spanName {
	for i, n := range t.names {
		if n == s {
			return spanName(i)
		}
	}
	t.names = append(t.names, s)
	t.totals = append(t.totals, spanTotals{})
	for i := range t.byRoot {
		t.byRoot[i] = append(t.byRoot[i], rootCell{})
	}
	t.byRoot = append(t.byRoot, make([]rootCell, len(t.names)))
	return spanName(len(t.names) - 1)
}

// reset forgets everything recorded so far; names and open spans stay.
func (t *tracer) reset() {
	for i := range t.totals {
		t.totals[i] = spanTotals{}
		for j := range t.byRoot[i] {
			t.byRoot[i][j] = rootCell{}
		}
	}
	t.spans = t.spans[:0]
	for i := range t.stack {
		t.stack[i].rec, t.stack[i].child = -1, 0
	}
}

// freeze returns a copy of the totals, detached from further recording.
func (t *tracer) freeze() *tracer {
	c := &tracer{base: t.base, names: append([]string(nil), t.names...), totals: append([]spanTotals(nil), t.totals...)}
	c.byRoot = make([][]rootCell, len(t.byRoot))
	for i, row := range t.byRoot {
		c.byRoot[i] = append([]rootCell(nil), row...)
	}
	return c
}

// under sums the self time of every span that ran under entry spans
// called root, leaving out the names in except.
func (t *tracer) under(root spanName, except ...spanName) int64 {
	var sum int64
next:
	for name, c := range t.byRoot[root] {
		for _, e := range except {
			if spanName(name) == e {
				continue next
			}
		}
		sum += c.self
	}
	return sum
}

// spansUnder counts the spans that ran inside entry spans called root,
// the entry spans themselves left out.
func (t *tracer) spansUnder(root spanName) int64 {
	var n int64
	for name, c := range t.byRoot[root] {
		if spanName(name) != root {
			n += c.calls
		}
	}
	return n
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span; msg is the cast it works on, or -1.
func (t *tracer) begin(name spanName, msg int64) {
	rec := int32(-1)
	now := t.now()
	if len(t.spans) < cap(t.spans) {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].rec
		}
		rec = int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, parent: parent, msg: msg, start: now})
	}
	root := name
	if n := len(t.stack); n > 0 && t.stack[n-1].name != spanSched {
		root = t.stack[n-1].root
	}
	t.stack = append(t.stack, openSpan{name: name, root: root, rec: rec, start: now})
}

// end closes the innermost open span.
func (t *tracer) end() {
	now := t.now()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	d := now - o.start
	tot := &t.totals[o.name]
	tot.calls++
	tot.total += d
	tot.self += d - o.child
	cell := &t.byRoot[o.root][o.name]
	cell.calls++
	cell.self += d - o.child
	if n > 0 {
		t.stack[n-1].child += d
	}
	if o.rec >= 0 {
		t.spans[o.rec].end = now
	}
}

// tagMsg names the cast the open spans are working on, once it is
// known: a receive span learns it only when the delivery comes out.
func (t *tracer) tagMsg(msg int64) {
	for i := len(t.stack) - 1; i >= 0; i-- {
		if r := t.stack[i].rec; r >= 0 && t.spans[r].msg < 0 {
			t.spans[r].msg = msg
		}
	}
}

func (t *tracer) get(name spanName) spanTotals { return t.totals[name] }

// merge adds another tracer's totals (the other UDP member's) by name.
func (t *tracer) merge(o *tracer) {
	for i, n := range o.names {
		id := t.name(n)
		t.totals[id].calls += o.totals[i].calls
		t.totals[id].total += o.totals[i].total
		t.totals[id].self += o.totals[i].self
	}
	for r, row := range o.byRoot {
		for n, c := range row {
			cell := &t.byRoot[t.name(o.names[r])][t.name(o.names[n])]
			cell.calls += c.calls
			cell.self += c.self
		}
	}
}

// writeSpans writes the recorded spans as tab-separated text.
func (t *tracer) writeSpans(path string, track int, appendTo bool) error {
	flag := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendTo {
		flag = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if !appendTo {
		fmt.Fprintln(w, "track\tspan\tname\tstart_ns\tend_ns\tparent\tmsg")
	}
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", track, i, t.names[s.name], s.start, s.end, s.parent, s.msg)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wrapHandlers times the application upcalls. OnCast is the benchmark's
// own checker, so its span is the cost to subtract, not the program's.
func (t *tracer) wrapHandlers(h core.Handlers) core.Handlers {
	w := h
	if h.OnCast != nil {
		w.OnCast = func(origin int, payload []byte) {
			msg := int64(-1)
			if len(payload) >= payloadHeader {
				msg = msgID(int(binary.LittleEndian.Uint16(payload[4:])), int(binary.LittleEndian.Uint32(payload)))
				t.tagMsg(msg)
			}
			t.begin(spanDeliver, msg)
			h.OnCast(origin, payload)
			t.end()
		}
	}
	if h.OnView != nil {
		w.OnView = func(v *event.View) {
			t.begin(spanOtherUpcall, -1)
			h.OnView(v)
			t.end()
		}
	}
	return w
}
