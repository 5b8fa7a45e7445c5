package bench

import (
	"fmt"
	"strings"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/layer"
	"ensemble/internal/layers"
	"ensemble/internal/opt"
	"ensemble/internal/perfcount"
	"ensemble/internal/stack"
)

// This file regenerates each table and figure of §4.2 as formatted text.
// The cmd/ensemble-bench binary prints them; EXPERIMENTS.md records a
// reference run next to the paper's numbers.

// Table1a reproduces Table 1(a): 10-layer stack code latency in µs for
// MACH, IMP, FUNC with 4-byte messages.
func Table1a(rounds int) (string, error) {
	return latencyTable("Table 1(a): 10-layer stack code latency (µs), 4-byte messages",
		layers.Stack10(), []Config{MACH, IMP, FUNC}, 4, rounds)
}

// Table1b reproduces Table 1(b): 4-layer stack code latency in µs for
// HAND, MACH, IMP, FUNC with 4-byte messages.
func Table1b(rounds int) (string, error) {
	return latencyTable("Table 1(b): 4-layer stack code latency (µs), 4-byte messages",
		layers.Stack4(), []Config{HAND, MACH, IMP, FUNC}, 4, rounds)
}

func latencyTable(title string, names []string, cfgs []Config, size, rounds int) (string, error) {
	results := make([]Segments, len(cfgs))
	for i, c := range cfgs {
		seg, err := MeasureCodeLatency(c, names, size, rounds)
		if err != nil {
			return "", fmt.Errorf("%s: %w", c, err)
		}
		results[i] = seg
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-16s", "")
	for _, c := range cfgs {
		fmt.Fprintf(&b, "%10s", c)
	}
	fmt.Fprintln(&b)
	rows := []struct {
		name string
		get  func(Segments) float64
	}{
		{"Down Stack", func(s Segments) float64 { return s.DownStack }},
		{"Down Transport", func(s Segments) float64 { return s.DownTransport }},
		{"Up Transport", func(s Segments) float64 { return s.UpTransport }},
		{"Up Stack", func(s Segments) float64 { return s.UpStack }},
		{"Total", Segments.Total},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s", r.name)
		for i := range cfgs {
			fmt.Fprintf(&b, "%10s", Micros(r.get(results[i])))
		}
		fmt.Fprintln(&b)
	}
	return b.String(), nil
}

// Figure6 reproduces Figure 6: 10-layer code latency split by segment
// for message sizes 4, 24, 100, and 1024 bytes, for MACH, IMP, FUNC.
func Figure6(rounds int) (string, error) {
	sizes := []int{4, 24, 100, 1024}
	cfgs := []Config{MACH, IMP, FUNC}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: 10-layer stack code latency (µs) by message size\n")
	fmt.Fprintf(&b, "%-6s %-6s %12s %12s %12s %12s %10s\n",
		"size", "config", "DownStack", "DownTransp", "UpTransp", "UpStack", "Total")
	for _, size := range sizes {
		for _, c := range cfgs {
			seg, err := MeasureCodeLatency(c, layers.Stack10(), size, rounds)
			if err != nil {
				return "", fmt.Errorf("size %d %s: %w", size, c, err)
			}
			fmt.Fprintf(&b, "%-6d %-6s %12s %12s %12s %12s %10s\n",
				size, c, Micros(seg.DownStack), Micros(seg.DownTransport),
				Micros(seg.UpTransport), Micros(seg.UpStack), Micros(seg.Total()))
		}
	}
	return b.String(), nil
}

// Counters is the Table 2(a) substitute: where the paper reads Pentium
// performance-monitoring counters, we read the Go runtime's allocation
// and GC counters plus wall time and wire bytes over the same
// experimental design (10,000 send/recv rounds, original vs optimized).
type Counters struct {
	Rounds     int
	Nanos      int64
	Mallocs    uint64
	AllocBytes uint64
	WireBytes  int64
	NumGC      uint32
	Deliveries int
}

// MeasureCounters runs rounds of send/receive and reports the counters.
// WireBytes counts what the sender's casts put on the wire, not the
// receiver's answers or the housekeeping sweeps.
func MeasureCounters(cfg Config, names []string, size, rounds int) (Counters, error) {
	c := Counters{Rounds: rounds}
	p, err := newPair(cfg, names, nil, nil)
	if err != nil {
		return c, err
	}
	pump := &wirePump{deliver: p.packet}
	casting := false
	p.out = func(from, to int, wire []byte) {
		if casting {
			c.WireBytes += int64(len(wire))
		}
		pump.send(to, wire)
	}
	payload := make([]byte, size)
	smp, err := perfcount.Measure(func() error {
		for i := 0; i < rounds; i++ {
			// What the cast emits is counted and held, then delivered.
			casting, pump.active = true, true
			p.ends[0].Cast(payload)
			casting = false
			pump.drain()
			if i%256 == 255 {
				p.timers(int64(i) * int64(1e6))
			}
		}
		return nil
	})
	if err != nil {
		return c, err
	}
	c.apply(smp)
	c.Deliveries = p.delivered
	return c, nil
}

// apply copies a perfcount sample into the counter row.
func (c *Counters) apply(s perfcount.Sample) {
	c.Nanos = s.Wall.Nanoseconds()
	c.Mallocs = s.Mallocs
	c.AllocBytes = s.AllocBytes
	c.NumGC = s.GCCycles
}

// Table2a reproduces Table 2(a)'s design with Go-observable counters:
// original (IMP) stack vs optimized (MACH) over 10,000 send/recv rounds.
func Table2a(rounds int) (string, error) {
	orig, err := MeasureCounters(IMP, layers.Stack10(), 4, rounds)
	if err != nil {
		return "", err
	}
	mach, err := MeasureCounters(MACH, layers.Stack10(), 4, rounds)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2(a) substitute: runtime counters for %d send/recv rounds\n", rounds)
	fmt.Fprintf(&b, "(paper reads Pentium HW counters; we read Go runtime counters — same design)\n")
	fmt.Fprintf(&b, "%-24s %16s %16s\n", "", "Original Stack", "Optimized Stack")
	row := func(name string, o, m any) { fmt.Fprintf(&b, "%-24s %16v %16v\n", name, o, m) }
	row("heap allocations", orig.Mallocs, mach.Mallocs)
	row("bytes allocated", orig.AllocBytes, mach.AllocBytes)
	row("wire bytes", orig.WireBytes, mach.WireBytes)
	row("gc cycles", orig.NumGC, mach.NumGC)
	row("wall time (ms)", orig.Nanos/1e6, mach.Nanos/1e6)
	row("ns/round", orig.Nanos/int64(rounds), mach.Nanos/int64(rounds))
	return b.String(), nil
}

// Table2b reproduces Table 2(b): per-layer code sizes for down- and
// up-going handlers, plus the size of the generated bypass. The paper
// measures ocamlopt object-code bytes; we measure the rendered IR (the
// representation the optimizer consumes and emits), which preserves the
// claim being made: the specialized composite is far smaller than the
// sum of its parts.
func Table2b() (string, error) {
	names := layers.Stack10()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2(b) substitute: IR sizes (bytes) of the 10-layer stack\n")
	fmt.Fprintf(&b, "%-16s %8s %8s\n", "Layer", "Down", "Up")
	totalDn, totalUp := 0, 0
	for _, n := range names {
		def, err := ir.LookupDef(n)
		if err != nil {
			return "", err
		}
		dn := renderedSize(def, ir.DnCast) + renderedSize(def, ir.DnSend)
		up := renderedSize(def, ir.UpCast) + renderedSize(def, ir.UpSend)
		totalDn += dn
		totalUp += up
		fmt.Fprintf(&b, "%-16s %8d %8d\n", n, dn, up)
	}
	fmt.Fprintf(&b, "%-16s %8d %8d\n", "total size", totalDn, totalUp)

	// The generated bypass: composed stack theorems for this stack.
	dnSize, upSize := 0, 0
	for _, path := range []ir.PathKey{ir.DnCast, ir.DnSend} {
		if th, err := opt.ComposeDn(names, path, 0, 2); err == nil {
			dnSize += len(th.String())
			sig := opt.SignatureOf(th)
			upPath := ir.PathKey{Dir: event.Up, Kind: path.Kind}
			if up, err := opt.ComposeUp(names, upPath, 1, 2, sig); err == nil {
				upSize += len(up.String())
			}
		}
	}
	fmt.Fprintf(&b, "%-16s %8d %8d\n", "MACH (generated)", dnSize, upSize)
	return b.String(), nil
}

func renderedSize(def *ir.LayerDef, path ir.PathKey) int {
	n := 0
	for _, r := range def.IR.Paths[path] {
		n += len(r.String())
	}
	return n
}

// E2ETable reproduces §4.2's end-to-end arithmetic: protocol processing
// as a share of end-to-end latency, and the improvement from IMP to
// MACH, on the two link models the paper uses (Ethernet ~80µs, VIA
// ~10µs).
func E2ETable(rounds int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "End-to-end improvement (paper §4.2 arithmetic with measured code latencies)\n")
	fmt.Fprintf(&b, "%-10s %-10s %12s %12s %14s %14s %12s\n",
		"stack", "link", "IMP code", "MACH code", "IMP share", "MACH share", "improvement")
	for _, tc := range []struct {
		name  string
		stack []string
	}{
		{"10-layer", layers.Stack10()},
		{"4-layer", layers.Stack4()},
	} {
		imp, err := MeasureCodeLatency(IMP, tc.stack, 4, rounds)
		if err != nil {
			return "", err
		}
		mach, err := MeasureCodeLatency(MACH, tc.stack, 4, rounds)
		if err != nil {
			return "", err
		}
		for _, link := range []struct {
			name string
			ns   float64
		}{
			{"ethernet", 80_000}, // §4.2: "network latency ... about 80µs"
			{"via", 10_000},      // §4: VIA Giganet, 10µs
		} {
			impShare := imp.Total() / (imp.Total() + link.ns) * 100
			machShare := mach.Total() / (mach.Total() + link.ns) * 100
			improve := (1 - (mach.Total()+link.ns)/(imp.Total()+link.ns)) * 100
			fmt.Fprintf(&b, "%-10s %-10s %10sµs %10sµs %13.0f%% %13.0f%% %11.0f%%\n",
				tc.name, link.name, Micros(imp.Total()), Micros(mach.Total()),
				impShare, machShare, improve)
		}
	}
	return b.String(), nil
}

// CCPTable reports the cost of checking the composed common-case
// predicate (§4.2: "checking the CCPs takes only about 3 µs" on the
// paper's hardware).
func CCPTable(rounds int) (string, error) {
	d10, err := MeasureCCPCheck(layers.Stack10(), rounds)
	if err != nil {
		return "", err
	}
	d4, err := MeasureCCPCheck(layers.Stack4(), rounds)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "CCP check cost\n")
	fmt.Fprintf(&b, "10-layer composed CCP: %v per check\n", d10)
	fmt.Fprintf(&b, " 4-layer composed CCP: %v per check\n", d4)
	// The dispatch half of the ccp table: per-path hit/miss rates and the
	// interpreted share for the mixed workload (what
	// TestMixedTrafficStaysCompiled bounds).
	mixedRounds := rounds
	if mixedRounds > 2000 {
		mixedRounds = 2000
	}
	if mixedRounds < 600 {
		mixedRounds = 600
	}
	mixed, err := MixedTable(5, mixedRounds, 42)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\n%s", mixed)
	return b.String(), nil
}

// TheoremListing prints the stack optimization theorems the optimizer
// derives for a stack — the artifacts Fig. 5's pipeline produces.
func TheoremListing(names []string, rank, n int) (string, error) {
	eng, err := opt.NewEngine(names, layer.DefaultConfig(benchView(n, rank)), stack.Func)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, th := range eng.Theorems() {
		fmt.Fprintf(&b, "%s\n\n", th)
	}
	return b.String(), nil
}
