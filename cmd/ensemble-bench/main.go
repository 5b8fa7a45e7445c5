// Command ensemble-bench regenerates the paper's evaluation (§4.2):
// every table and figure, printed in the paper's layout.
//
// Usage:
//
//	ensemble-bench -table all -rounds 10000
//	ensemble-bench -table 1a
//	ensemble-bench -table fig6 -rounds 4000
//	ensemble-bench -table obs -rounds 4000
//	ensemble-bench -flight flight.trace.json -metrics
//	ensemble-bench -table 1a -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Tables: 1a, 1b, fig6, 2a, 2b, e2e, ccp, theorems, wire, wire64, obs, scale, latency, all.
//
// -flight runs the standard 8-member MACH workload with
// the flight recorder on and writes the Chrome trace_event JSON (load
// it in Perfetto or chrome://tracing; one track per member). -metrics
// prints the unified metrics snapshot of that same run — or, without
// -flight, of a fresh run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"ensemble/internal/bench"
	"ensemble/internal/layers"
	"ensemble/internal/obs"
)

// flightMembers/flightRounds shape the workload behind -flight and
// -metrics: big enough to exercise batching, wire compression, and the
// MACH bypass, small enough to finish in about a second.
const (
	flightMembers = 8
	flightRounds  = 400
	flightSeed    = 29
)

func main() {
	table := flag.String("table", "", "which table to regenerate: 1a, 1b, fig6, 2a, 2b, e2e, ccp, theorems, wire, wire64, obs, scale, latency, all")
	rounds := flag.Int("rounds", 10000, "measurement rounds per configuration (the paper uses 10,000)")
	flight := flag.String("flight", "", "write a Chrome trace of the 8-member MACH workload to this file")
	metrics := flag.Bool("metrics", false, "print the unified metrics snapshot of the observed workload")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *table == "" && *flight == "" && !*metrics {
		*table = "all"
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *flight != "" || *metrics {
		if err := runObserved(*flight, *metrics); err != nil {
			fatal(err)
		}
	}

	if *table != "" {
		runTables(*table, *rounds)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// runObserved drives the observed flight workload once and fans the
// result out to the requested sinks.
func runObserved(flightPath string, metrics bool) error {
	res, err := bench.FlightRecording(flightMembers, flightRounds, flightSeed, 1)
	if err != nil {
		return err
	}
	if flightPath != "" {
		f, err := os.Create(flightPath)
		if err != nil {
			return err
		}
		if err := writeTrace(f, res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		var total int64
		for r := 0; r < res.Recorder.Members(); r++ {
			total += res.Recorder.Track(r).Total()
		}
		fmt.Printf("flight: %d members, %d records -> %s (Perfetto / chrome://tracing)\n",
			res.Recorder.Members(), total, flightPath)
	}
	if metrics {
		fmt.Println("Unified metrics snapshot, 8-member MACH run:")
		fmt.Println(res.Metrics)
	}
	return nil
}

func writeTrace(f *os.File, res bench.NetThroughput) error {
	return obs.WriteChromeTrace(f, res.Recorder)
}

func runTables(table string, rounds int) {
	type gen struct {
		name string
		run  func() (string, error)
	}
	gens := []gen{
		{"1a", func() (string, error) { return bench.Table1a(rounds) }},
		{"1b", func() (string, error) { return bench.Table1b(rounds) }},
		{"fig6", func() (string, error) { return bench.Figure6(rounds) }},
		{"2a", func() (string, error) { return bench.Table2a(rounds) }},
		{"2b", func() (string, error) { return bench.Table2b() }},
		{"e2e", func() (string, error) { return bench.E2ETable(rounds) }},
		{"ccp", func() (string, error) { return bench.CCPTable(rounds) }},
		{"theorems", func() (string, error) { return bench.TheoremListing(layers.Stack10(), 0, 2) }},
		// The wire table drives rounds cast rounds; the paper default of
		// 10,000 is sized for code-latency sampling, so it caps them to
		// keep `-table all` quick.
		{"wire", func() (string, error) { return bench.WireTable(min(rounds, 2000)) }},
		// wire64 is the same table at 64 members — the scale point of
		// the EXPERIMENTS.md bytes-on-wire tables; fewer rounds, since
		// every cast fans out to 63 receivers.
		{"wire64", func() (string, error) { return bench.WireTableAt(64, min(rounds, 400)) }},
		// The obs table measures the observability overhead (recorder
		// off, then on); like wire, it caps the rounds.
		{"obs", func() (string, error) { return bench.ObsOverheadTable(min(rounds, 20000)) }},
		// The scale table sweeps member counts 16/64/256 (flat, flat,
		// hierarchical 16x16) and measures one view change at 8, 16 and
		// 64 members; its workload sizes are fixed internally.
		{"scale", func() (string, error) { return bench.ScaleTable(scaleWorkers()) }},
		// The latency table reconstructs causal spans from an 8-member
		// reference run's flight dump and reports per-hop percentiles,
		// cross-checked against the members' zero-alloc histograms.
		{"latency", func() (string, error) { return bench.LatencyTable(8, min(rounds, 50), 64, 29) }},
	}
	ran := false
	for _, g := range gens {
		if table != "all" && table != g.name {
			continue
		}
		ran = true
		out, err := g.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ensemble-bench: %s: %v\n", g.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "ensemble-bench: unknown table %q\n", table)
		os.Exit(2)
	}
}

// scaleWorkers sizes the scale table's concurrent runs: the machine's
// cores, capped at 8 (the sweep's largest useful pool).
func scaleWorkers() int {
	w := runtime.NumCPU()
	if w > 8 {
		w = 8
	}
	if w < 2 {
		w = 2
	}
	return w
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ensemble-bench: %v\n", err)
	os.Exit(1)
}
