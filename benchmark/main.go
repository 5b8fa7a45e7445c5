// Command benchmark is the repository's one performance instrument: it
// drives the public entry points of internal/core over loopback UDP
// sockets and the deterministic simulator, checks that what comes out
// is correct, and prints every metric of BENCHMARK.json by name.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line last
//	benchmark [-traced] [-seed N] [-out set.json]             the whole set, as a ledger entry
//	benchmark -compare a.json b.json                          two sets against the bounds
//	benchmark -manifest                                       BENCHMARK.json, from the tables
//
// README.md says what the metrics mean and how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"ensemble/internal/deploy"
)

// runSeconds is how long one run measures when nothing says otherwise;
// BENCHMARK.json carries the same number.
const runSeconds = 10

// machine identifies where a set of numbers came from; two sets are
// only comparable when these agree.
type machine struct {
	CPU    string `json:"cpu"`
	NumCPU int    `json:"nproc"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
}

func thisMachine() machine {
	m := machine{CPU: "unknown", NumCPU: runtime.NumCPU(), Go: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout that is not a git repository has no commit to name.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// ledger is one full set of runs: the file -out writes and -compare
// reads. Claim is null: this program measures, it does not claim.
type ledger struct {
	Claim     *string               `json:"claim"`
	Machine   machine               `json:"machine"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Loopback  string                `json:"loopback"`
	Workloads map[string]*runResult `json:"workloads"`
	Traced    map[string]*runResult `json:"traced,omitempty"`
}

const loopbackNote = "udp2_small crosses the host's loopback interface, not a real link"

func printRun(name string, defs []metricDef, res *runResult) {
	fmt.Printf("workload %s: GOMAXPROCS=%d correct=%t attempted=%d failed=%d failed_ops_share=%g\n",
		name, res.Procs, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, d := range defs {
		v := res.Metrics[d.name]
		fmt.Printf("  %-42s %16.6g %-6s (min %.6g, max %.6g, n=%d)\n", d.name, v.Value, d.unit, v.Min, v.Max, len(v.Samples))
	}
	for _, n := range res.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload and end with the driver's JSON line (default: the whole set)")
		seed      = flag.Int64("seed", 1, "seed for the simulator and the payload bytes")
		seconds   = flag.Float64("seconds", runSeconds, "how long each run measures")
		trace     = flag.Int("trace", 0, "with -workload: 1 runs the traced run and reports the per-layer metrics")
		traced    = flag.Bool("traced", false, "whole set: also make the traced run of every workload")
		out       = flag.String("out", "", "whole set: write the ledger entry to this file")
		spans     = flag.String("spans", "", "traced runs: write the recorded spans to this file (name, start, end, parent, msg)")
		compare   = flag.Bool("compare", false, "compare two ledger entries: benchmark -compare a.json b.json")
		bounds    = flag.String("bounds", "BENCHMARK.json", "with -compare: the file holding each metric's bound")
		manifestF = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
	)
	flag.Parse()
	switch {
	case *manifestF:
		fmt.Print(manifest(runSeconds))
	case *compare:
		if flag.NArg() != 2 {
			fail("-compare takes two ledger files")
		}
		os.Exit(compareLedgers(flag.Arg(0), flag.Arg(1), *bounds))
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fail("no workload %q", *name)
		}
		runOne(w, *seed, *seconds, *trace != 0, *spans)
	default:
		runSet(*seed, *seconds, *traced, *out, *spans)
	}
}

func header(seed int64, seconds float64) machine {
	mc := thisMachine()
	fmt.Printf("machine: cpu=%q nproc=%d go=%s commit=%s\n", mc.CPU, mc.NumCPU, mc.Go, mc.Commit)
	fmt.Printf("seed=%d seconds=%g; %s\n", seed, seconds, loopbackNote)
	return mc
}

// runOne is the driver's entry: one workload, one run, the JSON line
// last on standard output.
func runOne(w *workload, seed int64, seconds float64, traced bool, spans string) {
	header(seed, seconds)
	var res *runResult
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		res, err = runTraced(w, seed, spans, os.Stdout)
	} else {
		res, err = runUntraced(w, seed, seconds)
	}
	if err != nil {
		fail("%v", err)
	}
	printRun(w.name, defs, res)
	fmt.Println(contractLine(res.Correct, res.Attempted, res.Failed, defs, res.Metrics))
	if !res.Correct {
		os.Exit(1)
	}
}

// runSet runs every workload and prints the whole ledger entry.
func runSet(seed int64, seconds float64, traced bool, out, spans string) {
	if err := deploy.LoopbackAvailable(); err != nil {
		fail("the set includes udp2_small, which needs loopback UDP sockets: %v", err)
	}
	led := ledger{Machine: header(seed, seconds), Seed: seed, Seconds: seconds, Loopback: loopbackNote,
		Workloads: map[string]*runResult{}}
	ok := true
	for i := range workloads {
		w := &workloads[i]
		res, err := runUntraced(w, seed, seconds)
		if err != nil {
			fail("%v", err)
		}
		printRun(w.name, endToEnd, res)
		led.Workloads[w.name] = res
		ok = ok && res.Correct
	}
	if traced {
		led.Traced = map[string]*runResult{}
		for i := range workloads {
			w := &workloads[i]
			res, err := runTraced(w, seed, spans, os.Stdout)
			if err != nil {
				fail("%v", err)
			}
			printRun(w.name+" (traced)", perLayer, res)
			led.Traced[w.name] = res
			ok = ok && res.Correct
		}
	}
	b, err := json.MarshalIndent(led, "", " ")
	if err != nil {
		fail("%v", err)
	}
	if out != "" {
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fail("%v", err)
		}
	}
	fmt.Printf("summary: \"claim\": null, workloads=%d, correct=%t\n", len(workloads), ok)
	if !ok {
		os.Exit(1)
	}
}
