// Command ensemble-check runs the §3 checking machinery: stack
// configuration checking via the Above/Below adjacency discipline
// (§3.2), property-driven stack selection, and bounded trace-inclusion
// checking of the FifoProtocol composition against the abstract
// FifoNetwork specification (§3.1).
//
// Usage:
//
//	ensemble-check -stack stack10
//	ensemble-check -layers top,pt2pt,mnak,bottom
//	ensemble-check -properties total-order,fragmentation
//	ensemble-check -fifo -msgs 2
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ensemble/internal/check"
	"ensemble/internal/core"
	"ensemble/internal/layers"
	"ensemble/internal/spec"
)

func main() {
	stackName := flag.String("stack", "", "predefined stack to check: stack4, stack10, fifo, vsync")
	layerList := flag.String("layers", "", "comma-separated layer names to check, top first")
	props := flag.String("properties", "", "comma-separated properties: select a stack and check it")
	fifo := flag.Bool("fifo", false, "model-check FifoProtocol ∘ LossyChannels ⊑ FifoNetwork")
	msgs := flag.Int("msgs", 2, "message bound for model checking")
	limit := flag.Int("limit", 4_000_000, "state budget for model checking")
	flag.Parse()

	ran := false
	if names := pickStack(*stackName, *layerList); names != nil {
		ran = true
		checkStack(names)
	}
	if *props != "" {
		ran = true
		var ps []core.Property
		for _, p := range strings.Split(*props, ",") {
			ps = append(ps, core.Property(strings.TrimSpace(p)))
		}
		names, err := core.SelectStack(ps)
		if err != nil {
			fail(err)
		}
		fmt.Printf("selected stack for %v:\n  %s\n", ps, strings.Join(names, " / "))
		checkStack(names)
	}
	if *fifo {
		ran = true
		fmt.Printf("checking FifoProtocol ∘ LossyChannels ⊑ FifoNetwork (msgs=%d, limit=%d states)\n", *msgs, *limit)
		if err := check.TraceInclusion(spec.FifoProtocolSystem(*msgs), &spec.FifoNetwork{}, *limit); err != nil {
			fail(err)
		}
		fmt.Println("  OK: every external trace of the composition is a trace of FifoNetwork")
	}
	if !ran {
		fmt.Fprintln(os.Stderr, "ensemble-check: pass -stack, -layers, -properties, or -fifo")
		fmt.Fprintf(os.Stderr, "known properties: %v\n", core.Properties())
		os.Exit(2)
	}
}

func pickStack(stackName, layerList string) []string {
	switch stackName {
	case "stack4":
		return layers.Stack4()
	case "stack10":
		return layers.Stack10()
	case "fifo":
		return layers.StackFifo()
	case "vsync":
		return layers.StackVsync()
	}
	if layerList != "" {
		return strings.Split(layerList, ",")
	}
	return nil
}

func checkStack(names []string) {
	gs, err := check.CheckStack(names)
	if err != nil {
		fail(err)
	}
	fmt.Printf("stack %s\n  OK: adjacent Above/Below specifications agree\n  provides: %v\n",
		strings.Join(names, " / "), gs)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "ensemble-check: FAIL: %v\n", err)
	os.Exit(1)
}
