package bench

import (
	"strings"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// Smoke tests for the table generators: every row the paper's tables
// carry must appear, with sane relationships where they are not
// timing-dependent.

func TestTable2bShape(t *testing.T) {
	out, err := Table2b()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"partial_appl", "total", "local", "collect", "frag",
		"pt2ptw", "mflow", "pt2pt", "mnak", "bottom",
		"total size", "MACH (generated)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2(b) lacks row %q:\n%s", want, out)
		}
	}
}

func TestCCPTable(t *testing.T) {
	out, err := CCPTable(20000)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "10-layer") || !strings.Contains(out, "4-layer") {
		t.Fatalf("CCP table incomplete:\n%s", out)
	}
}

func TestTheoremListing(t *testing.T) {
	out, err := TheoremListing([]string{"top", "pt2pt", "mnak", "bottom"}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OPTIMIZING STACK", "ASSUMING", "YIELDS EVENTS"} {
		if !strings.Contains(out, want) {
			t.Errorf("theorem listing lacks %q", want)
		}
	}
}

func TestCountersShape(t *testing.T) {
	// measure runs one configuration and counts the events and headers it
	// took from event's pools meanwhile.
	measure := func(cfg Config) (Counters, int64) {
		p0 := event.ReadPoolCounters()
		c, err := MeasureCounters(cfg, []string{"top", "pt2pt", "mnak", "bottom"}, 4, 500)
		if err != nil {
			t.Fatal(err)
		}
		p1 := event.ReadPoolCounters()
		return c, p1.EventGets - p0.EventGets + p1.HeaderGets - p0.HeaderGets
	}
	orig, origGets := measure(IMP)
	mach, machGets := measure(MACH)
	if orig.Deliveries == 0 || mach.Deliveries == 0 {
		t.Fatalf("no deliveries: orig=%d mach=%d", orig.Deliveries, mach.Deliveries)
	}
	// One header codec: both stacks put the same compressed casts on the
	// wire, smaller than the same casts marshaled as TLV.
	if mach.WireBytes != orig.WireBytes {
		t.Errorf("wire bytes differ between the stacks: original %d, optimized %d", orig.WireBytes, mach.WireBytes)
	}
	tlv := tlvCastBytes(t, []string{"top", "pt2pt", "mnak", "bottom"}, 4, 500)
	t.Logf("wire bytes of the casts: %d original, %d optimized, %d as TLV", orig.WireBytes, mach.WireBytes, tlv)
	if orig.WireBytes >= tlv {
		t.Errorf("compressed wire (%d) not smaller than TLV (%d)", orig.WireBytes, tlv)
	}
	// The allocation claim. The pools are the private message allocator
	// of §4's first optimization: the original stack takes two events and
	// two headers from them every round, the bypass none. Heap
	// allocations cannot tell the two apart, because the pools hide the
	// per-message objects from the runtime and what is left — msgLog
	// slabs, queues growing — is the same for both.
	if machGets*10 >= origGets {
		t.Errorf("optimized stack took %d events and headers from the pools, original %d: want under a tenth",
			machGets, origGets)
	}
}

// tlvCastBytes is what MeasureCounters' casts put on the wire when the
// stack's net exit marshals every message with transport.Marshal: the
// same two members, casts and sweeps, without the signature table.
func tlvCastBytes(t *testing.T, names []string, size, rounds int) int64 {
	t.Helper()
	var (
		stks    [2]stack.Stack
		w       transport.Writer
		queue   []func()
		bytes   int64
		casting bool
	)
	for m := range stks {
		stk, err := stack.Build(names, layer.DefaultConfig(benchView(2, m)), stack.Imp, stack.Callbacks{Net: func(ev *event.Event) {
			if ev.Type != event.ECast && ev.Type != event.ESend {
				return
			}
			if err := transport.Marshal(ev, m, &w); err != nil {
				t.Fatal(err)
			}
			if casting {
				bytes += int64(w.HeaderLen() + len(ev.Msg.Payload))
			}
			wire := w.Bytes()
			queue = append(queue, func() {
				arr, err := transport.Unmarshal(wire)
				if err != nil {
					t.Fatal(err)
				}
				stks[1-m].DeliverUp(arr)
			})
		}})
		if err != nil {
			t.Fatal(err)
		}
		stks[m] = stk
	}
	drain := func() {
		for len(queue) > 0 {
			f := queue[0]
			queue = queue[1:]
			f()
		}
	}
	payload := make([]byte, size)
	for i := 0; i < rounds; i++ {
		casting = true
		stks[0].SubmitDn(event.CastEv(payload))
		casting = false
		drain()
		if i%256 == 255 {
			for _, stk := range stks {
				stk.DeliverUp(event.TimerEv(int64(i) * int64(1e6)))
			}
			drain()
		}
	}
	return bytes
}

func TestE2ETableShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-derived table")
	}
	out, err := E2ETable(2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ethernet", "via", "10-layer", "4-layer"} {
		if !strings.Contains(out, want) {
			t.Errorf("e2e table lacks %q:\n%s", want, out)
		}
	}
}
