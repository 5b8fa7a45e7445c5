// bench-gate parses `go test -bench` output for the sustained-throughput
// benchmarks and enforces the regression bars. Every harness it reads
// drives the one wire path members use — Batcher (0xB9 frames) into the
// receive link — so the bars gate production bytes:
//
//   - every 10-layer two-node throughput benchmark must report 0
//     allocs/op — the wire batcher's frame encode and the receive link's
//     decode live on the zero-allocation hot path;
//   - the 8-member network runs must coalesce at least two sub-packets
//     per frame on average;
//   - the wire format must pay for itself: on the 8-member MACH
//     minimum-payload workload, bytes/msg on the wire must be at most
//     0.487x the same run's classic-bytes/msg — what exactly those wires
//     would have cost as unbatched classic frames (one magic byte +
//     uvarint length + wire per sub);
//   - observability is free enough to leave on: the _Obs unit
//     benchmarks (registry + flight recorder live on the emit path) are
//     held to the same 0 allocs/op bar by the 10-layer scan, and the
//     8-member _Obs network run's obs-ratio (observed msgs/sec over
//     unobserved, measured back to back in one process) must be
//     >= 0.97;
//   - the multi-CCP dispatch family pays on mixed traffic: the mixed
//     workload's interpreted (full-stack) share under the full dispatch
//     family must be at most half the single-CCP baseline's on the
//     identical workload (BenchmarkMixedTraffic_MultiCCP interp-share
//     <= 0.5x BenchmarkMixedTraffic_SingleCCP);
//   - the member-count scaling sweep (_Scale_ points at 16/64/256, the
//     last a 16x16 hierarchy over the sharded scheduler) stays
//     deterministic — every point's identical metric must be 1 — holds
//     a per-member throughput floor relative to the 16-member point
//     (within 2x of what is measured), and holds a ceiling on heap
//     allocations per delivery at the 16- and 64-member points, so a
//     per-delivery clone cannot come back into the receive path
//     unnoticed; the 256-member point may skip on machines under 4 cores
//     (the skip marker must then appear in the raw output);
//   - the stateful wire format stays deterministic: the XFrameIdentity
//     probe (8-member MACH, a mid-run generation bump) must report
//     identical=1 between Run and RunConcurrent;
//   - the observability plane measures latency for free: the _Obs unit
//     benchmarks' wire-size histograms must have sampled their runs
//     (still at 0 allocs/op under the 10-layer scan); the obs-ratio bar
//     must hold with live histograms; and the SpanRecon probe must map
//     every delivered message of the 8-member netsim run to a complete
//     causal chain (spans > 0, spans-complete = 1).
//
// It optionally records the parsed numbers as a JSON trajectory file so
// the repository keeps a machine-readable history of the batching
// figures next to the PR that produced them; a file named
// BENCH_PR<n>.json records n as its "pr".
//
// Usage:
//
//	go test -run xxx -bench 'BenchmarkThroughput_' -benchtime 100x . > unit.out
//	go test -run xxx -bench 'BenchmarkThroughputNet_' -benchtime 150x . > net.out
//	go test -run xxx -bench 'BenchmarkMixedTraffic_' -benchtime 1x . > mixed.out
//	go run ./cmd/bench-gate -unit unit.out -net net.out -mixed mixed.out -out BENCH_PR23.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// result is one benchmark line's metrics, keyed by unit ("ns/op",
// "msgs/sec", "subs/frame", "B/op", "allocs/op", ...).
type result map[string]float64

// parseBench extracts benchmark lines from `go test -bench` output.
// A line looks like:
//
//	BenchmarkThroughput_10Layer_IMP-8  5000  1519 ns/op  658146 msgs/sec  1 B/op  0 allocs/op
func parseBench(data []byte) map[string]result {
	out := map[string]result{}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		r := result{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			r[fields[i+1]] = v
		}
		if len(r) > 0 {
			out[name] = r
		}
	}
	return out
}

// machine identifies where the numbers were taken (this process runs on
// the box that just ran the benchmarks): a number without its machine
// cannot be compared with its predecessor.
func machine() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version()}
}

func sortedNames(m map[string]result) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Gate 6's bars. A floor is the smallest per-member throughput, as a
// share of the same mode's 16-member point, a scale point may report:
// about half the lowest of the measurements taken at PR 15 on an idle
// box (listed beside each; EXPERIMENTS.md "Retention as wire images") —
// the lowest rather than the median because this box moves that much
// between runs at 256 members — and per mode because the sharded
// scheduler's concurrent runs scale differently from the sequential
// ones. A ceiling is the most heap allocations per delivery a flat point
// may report: ~10% over what is measured (18.02 at 16 members, 43.03 at
// 64 — the count repeats exactly in sequential mode; most of it is the
// two idle seconds of failure detection and stability gossip each run
// ends with).
var (
	scaleFloors = map[string]float64{ // "<members>_<mode>"
		"64Members_Seq":   0.0058, // measured 0.0117 to 0.0179, seven runs
		"64Members_Conc":  0.0078, // measured 0.0153 to 0.0196
		"256Members_Seq":  2.2e-4, // measured 4.5e-4 to 9.7e-4 (3.6e-4 beside a build)
		"256Members_Conc": 3.5e-4, // measured 7.1e-4 to 1.26e-3
	}
	scaleAllocCeilings = map[string]float64{"16Members": 20, "64Members": 47}
)

func main() {
	unitPath := flag.String("unit", "", "two-node throughput bench output (BenchmarkThroughput_*)")
	netPath := flag.String("net", "", "N-member network bench output (BenchmarkThroughputNet_*)")
	mixedPath := flag.String("mixed", "", "mixed-traffic dispatch bench output (BenchmarkMixedTraffic_*)")
	outPath := flag.String("out", "", "optional JSON trajectory file to write")
	flag.Parse()

	unit := map[string]result{}
	net := map[string]result{}
	mixed := map[string]result{}
	netRaw := "" // raw text kept for SKIP-marker detection (Gate 6)
	if *unitPath != "" {
		data, err := os.ReadFile(*unitPath)
		if err != nil {
			fatal("read %s: %v", *unitPath, err)
		}
		unit = parseBench(data)
	}
	if *netPath != "" {
		data, err := os.ReadFile(*netPath)
		if err != nil {
			fatal("read %s: %v", *netPath, err)
		}
		net = parseBench(data)
		netRaw = string(data)
	}
	if *mixedPath != "" {
		data, err := os.ReadFile(*mixedPath)
		if err != nil {
			fatal("read %s: %v", *mixedPath, err)
		}
		mixed = parseBench(data)
	}

	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Fprintf(os.Stderr, "bench-gate: FAIL: "+format+"\n", args...)
	}

	// Gate 1: the 10-layer two-node hot path — stack, batcher encode,
	// receive-link decode — allocates nothing.
	tenLayer := 0
	for _, name := range sortedNames(unit) {
		if !strings.Contains(name, "_10Layer_") {
			continue
		}
		tenLayer++
		if allocs, ok := unit[name]["allocs/op"]; !ok {
			fail("%s reports no allocs/op (run with -benchmem or b.ReportAllocs)", name)
		} else if allocs != 0 {
			fail("%s allocates %.0f allocs/op, want 0", name, allocs)
		}
		if spf := unit[name]["subs/frame"]; spf <= 1 {
			fail("%s reports %.2f subs/frame — the wire batcher is not on the measured path", name, spf)
		}
	}
	if *unitPath != "" && tenLayer == 0 {
		fail("no 10-layer throughput benchmarks found in %s", *unitPath)
	}

	// Gate 2: the 8-member network runs really coalesce.
	net8 := 0
	for _, name := range sortedNames(net) {
		spf, ok := net[name]["subs/frame"]
		if !ok || !strings.Contains(name, "_8Members_") {
			continue
		}
		net8++
		if spf < 2 {
			fail("%s coalesced only %.2f subs/frame, want >= 2", name, spf)
		}
	}
	if *netPath != "" && net8 == 0 {
		fail("no 8-member network benchmarks reporting subs/frame found in %s", *netPath)
	}

	// Gate 3: the wire format pays for itself. The gate point is the
	// 8-member MACH cast workload at the minimum stamped payload (the
	// header-dominated regime compression targets); its bytes/msg must be
	// at most wireRatioBar times the same run's classic-bytes/msg — what
	// exactly the wires it appended would have cost as unbatched classic
	// frames. The bar continues the one it replaces (<= 0.5x a
	// separately measured batched-classic run: 0.5 x 61.33 = 30.67
	// bytes/msg on this workload at 699768e, measured 29.94): the computed
	// yardstick reads 62.95 on the same seeded run, so 0.487x admits
	// 30.66 bytes/msg — no more than before.
	const wireName = "BenchmarkThroughputNet_8Members_MACH_Seq"
	const wireRatioBar = 0.487
	bytesRatio, wireBytes, classicBytes := 0.0, 0.0, 0.0
	if *netPath != "" {
		var okW, okC bool
		wireBytes, okW = net[wireName]["bytes/msg"]
		classicBytes, okC = net[wireName]["classic-bytes/msg"]
		switch {
		case !okW || !okC:
			fail("%s reports no bytes/msg and classic-bytes/msg metrics", wireName)
		case classicBytes <= 0:
			fail("%s reports %.2f classic-bytes/msg — nothing appended?", wireName, classicBytes)
		default:
			bytesRatio = wireBytes / classicBytes
			if bytesRatio > wireRatioBar {
				fail("wire format costs %.2f bytes/msg against %.2f unbatched-classic (ratio %.3f), want <= %.2f",
					wireBytes, classicBytes, bytesRatio, wireRatioBar)
			}
		}
	}

	// Gate 4: the observability substrate is cheap enough to leave on.
	// The allocation half is already enforced: the _Obs unit benchmarks
	// carry the _10Layer_ tag, so Gate 1's scan holds them to 0
	// allocs/op. Here we require that they exist (so the scan cannot be
	// dodged by deleting them) and that the observed 8-member network
	// run kept at least 97% of the unobserved throughput.
	const obsNetName = "BenchmarkThroughputNet_8Members_MACH_Seq_Obs"
	obsRatio := 0.0
	obsUnit := 0
	for _, name := range sortedNames(unit) {
		if strings.Contains(name, "_10Layer_") && strings.HasSuffix(name, "_Obs") {
			obsUnit++
		}
	}
	if *unitPath != "" && obsUnit == 0 {
		fail("no observed (_Obs) 10-layer throughput benchmarks found in %s", *unitPath)
	}
	if *netPath != "" {
		if ratio, ok := net[obsNetName]["obs-ratio"]; !ok {
			fail("%s reports no obs-ratio metric", obsNetName)
		} else {
			obsRatio = ratio
			if obsRatio < 0.97 {
				fail("observability costs %.1f%% throughput (obs-ratio %.3f), want >= 0.97",
					(1-obsRatio)*100, obsRatio)
			}
		}
	}

	// Gate 5: the multi-CCP dispatch family halves the interpreted share
	// on mixed traffic. Both sides run the identical seeded workload —
	// only the engine's path family differs — so the ratio isolates what
	// the control-path specialization and profile-guided probe order buy.
	// Re-measured when a CCP miss began to enter the stack at the layer
	// that failed (PR 19), which lowers both sides: single 0.380 -> 0.295,
	// multi 0.173 -> 0.0034, ratio 0.454 -> 0.012. The bar holds and stays.
	const singleName = "BenchmarkMixedTraffic_SingleCCP"
	const multiName = "BenchmarkMixedTraffic_MultiCCP"
	interpRatio := 0.0
	if *mixedPath != "" {
		single, okS := mixed[singleName]["interp-share"]
		multi, okM := mixed[multiName]["interp-share"]
		switch {
		case !okS:
			fail("%s reports no interp-share metric", singleName)
		case !okM:
			fail("%s reports no interp-share metric", multiName)
		case single <= 0:
			fail("%s reports interp-share %.3f — baseline routed nothing to the interpreter?", singleName, single)
		default:
			interpRatio = multi / single
			if interpRatio > 0.5 {
				fail("multi-CCP dispatch cut the interpreted share only %.1f%% (%.3f vs %.3f), want <= 0.5x",
					(1-interpRatio)*100, multi, single)
			}
			if ctrl, ok := mixed[multiName]["ctrl-compressed"]; !ok || ctrl == 0 {
				fail("%s compressed no control traffic (ctrl-compressed=%.0f)", multiName, ctrl)
			}
		}
	}

	// Gate 6: the member-count scaling sweep (16/64/256, the last as a
	// 16x16 hierarchy) stays byte-identical between Run and RunConcurrent
	// and keeps a per-member throughput floor relative to the 16-member
	// point of the same execution mode — the sweep's own small-member
	// baseline; the 8-member benchmarks above run a different stack and
	// harness (total order, per-round b.N scaling), so their msgs/sec is
	// not per-member comparable. All-cast rounds are O(N²)
	// deliveries, so per-member throughput falls superlinearly with N by
	// design; the floors are regression bars within 2x of the medians
	// measured at PR 15 on the 2-core reference box (scaleFloors;
	// EXPERIMENTS.md has the runs), not scalability targets. The
	// same points hold a ceiling on heap allocations per delivery
	// (runtime Mallocs over the run / deliveries — a count that repeats
	// exactly in sequential mode): retaining a delivered cast is a copy
	// into a slab, and a deep clone per delivery coming back would add
	// ten or more. The 256-member point may legitimately skip on
	// machines under 4 cores (the benchmark bounds `make verify`'s wall
	// time there); the gate then requires the SKIP marker in the raw
	// output so a silently deleted benchmark still fails.
	const scale256Skip = "--- SKIP: BenchmarkThroughputNet_256Members"
	scalePoints := 0
	scale256Skipped := *netPath != "" && strings.Contains(netRaw, scale256Skip)
	scaleRatios := map[string]float64{}
	scaleAllocs := map[string]float64{}
	for _, name := range sortedNames(net) {
		if !strings.Contains(name, "_Scale_") {
			continue
		}
		scalePoints++
		if ident, ok := net[name]["identical"]; !ok {
			fail("%s reports no identical metric", name)
		} else if ident != 1 {
			fail("%s determinism probe failed (identical=%.0f): Run and RunConcurrent traces diverge", name, ident)
		}
	}
	if *netPath != "" {
		if scalePoints == 0 {
			fail("no _Scale_ network benchmarks found in %s", *netPath)
		}
		for _, mode := range []string{"Seq", "Conc"} {
			base, ok := net["BenchmarkThroughputNet_16Members_Scale_"+mode]["msgs/sec-member"]
			if !ok || base <= 0 {
				fail("16-member scale point (%s) missing msgs/sec-member in %s", mode, *netPath)
				continue
			}
			for _, members := range []string{"64Members", "256Members"} {
				name := "BenchmarkThroughputNet_" + members + "_Scale_" + mode
				floor := scaleFloors[members+"_"+mode]
				pm, ok := net[name]["msgs/sec-member"]
				if !ok {
					if members == "256Members" && scale256Skipped {
						continue // bounded-wall-time skip on a small machine
					}
					fail("%s missing from %s (and no skip marker)", name, *netPath)
					continue
				}
				ratio := pm / base
				scaleRatios[members+"_"+mode] = ratio
				if ratio < floor {
					fail("%s per-member throughput collapsed: %.3f msgs/sec-member vs %.1f at 16 members (ratio %.6f, floor %.6f)",
						name, pm, base, ratio, floor)
				}
			}
			for _, members := range []string{"16Members", "64Members"} {
				name := "BenchmarkThroughputNet_" + members + "_Scale_" + mode
				got, ok := net[name]["allocs/delivery"]
				if !ok {
					fail("%s reports no allocs/delivery metric", name)
					continue
				}
				scaleAllocs[members+"_"+mode] = got
				if ceiling := scaleAllocCeilings[members]; got > ceiling {
					fail("%s allocates %.2f times per delivery, ceiling %.0f: something on the receive path allocates per message again",
						name, got, ceiling)
				}
			}
		}
	}

	// Gate 7: the stateful wire format did not cost determinism. The
	// XFrameIdentity probe runs the 8-member MACH workload with
	// cross-frame delta and adaptive flush on (plus a mid-run generation
	// bump) through Run and RunConcurrent and compares the cluster
	// delivery traces byte for byte.
	const xIdentName = "BenchmarkThroughputNet_8Members_MACH_XFrameIdentity"
	if *netPath != "" {
		if ident, ok := net[xIdentName]["identical"]; !ok {
			fail("%s reports no identical metric", xIdentName)
		} else if ident != 1 {
			fail("%s determinism probe failed (identical=%.0f): Run and RunConcurrent traces diverge under cross-frame delta", xIdentName, ident)
		}
	}

	// Gate 8: the observability plane measures latency, not just counts.
	// Three legs: (a) the _Obs unit benchmarks' wire-size histograms
	// sampled the run (hist-p99-bytes > 0; the _10Layer_ tag already holds
	// them to 0 allocs/op in Gate 1, and Gate 4 requires that they exist);
	// (b) the obs-ratio bar of Gate 4 still holds now that the observed
	// runners carry live histograms — re-asserted here so a Gate 4
	// regression under histograms reads as a Gate 8 failure too; (c) the
	// causal-trace reconstruction probe maps every delivered message of
	// the 8-member netsim run to a complete span (origin cast, wire out,
	// every receive, every ordered delivery).
	const spanReconName = "BenchmarkThroughputNet_8Members_MACH_SpanRecon"
	spanCount := 0.0
	for _, name := range sortedNames(unit) {
		if !strings.Contains(name, "_10Layer_") || !strings.HasSuffix(name, "_Obs") {
			continue
		}
		if p99, ok := unit[name]["hist-p99-bytes"]; !ok || p99 <= 0 {
			fail("%s histogram sampled nothing (hist-p99-bytes=%.0f)", name, p99)
		}
	}
	if *netPath != "" {
		if obsRatio > 0 && obsRatio < 0.97 {
			fail("histogram-enabled observability costs %.1f%% throughput (obs-ratio %.3f), want >= 0.97",
				(1-obsRatio)*100, obsRatio)
		}
		spans, okS := net[spanReconName]["spans"]
		complete, okC := net[spanReconName]["spans-complete"]
		switch {
		case !okS || !okC:
			fail("%s reports no spans/spans-complete metrics", spanReconName)
		case spans <= 0:
			fail("%s reconstructed no spans from the flight dump", spanReconName)
		case complete != 1:
			fail("%s has incomplete causal chains (spans-complete=%.0f): some delivered message lacks its cast, wire, or delivery evidence", spanReconName, complete)
		default:
			spanCount = spans
		}
	}

	if *outPath != "" {
		doc := map[string]any{
			"date":    time.Now().Format("2006-01-02"),
			"machine": machine(),
			"method": "make bench-gate: go test -run xxx -bench BenchmarkThroughput_ -benchtime 100x (alloc gate), " +
				"-bench BenchmarkThroughputNet_ -benchtime 150x (coalescing + wire-cost + obs-overhead + scaling gates; " +
				"the _Scale_ points run fixed round counts and the 256-member point skips under 4 cores unless " +
				"ENSEMBLE_SCALE_FORCE=1), and -bench BenchmarkMixedTraffic_ -benchtime 1x (dispatch-share gate); " +
				"parsed by cmd/bench-gate. Every harness drives Batcher (0xB9 frames) -> FrameWalker.WalkLink.",
			"gates": map[string]any{
				"ten_layer_allocs_op":            0,
				"net_8members_subs_per_frame":    ">= 2",
				"wire_bytes_vs_classic_ratio":    fmt.Sprintf("<= %.3f", wireRatioBar),
				"measured_bytes_per_msg":         wireBytes,
				"computed_classic_bytes_per_msg": classicBytes,
				"measured_bytes_per_msg_ratio":   bytesRatio,
				"xframe_identical":               1,
				"obs_throughput_ratio":           ">= 0.97",
				"measured_obs_ratio":             obsRatio,
				"interp_share_ratio":             "<= 0.5",
				"measured_interp_share_ratio":    interpRatio,
				"ten_layer_benchmarks":           tenLayer,
				"observed_unit_benchmarks":       obsUnit,
				"net_8member_benchmarks":         net8,
				"scale_identical":                1,
				"scale_per_member_floors":        scaleFloors,
				"measured_scale_ratios":          scaleRatios,
				"scale_allocs_per_delivery_max":  scaleAllocCeilings,
				"measured_scale_allocs":          scaleAllocs,
				"scale_points":                   scalePoints,
				"scale_256_skipped":              scale256Skipped,
				"span_recon_complete":            1,
				"measured_span_count":            spanCount,
			},
			"throughput":     unit,
			"net_throughput": net,
			"mixed_traffic":  mixed,
		}
		if pr, ok := prFromPath(*outPath); ok {
			doc["pr"] = pr
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal("marshal: %v", err)
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			fatal("write %s: %v", *outPath, err)
		}
		fmt.Printf("bench-gate: wrote %s\n", *outPath)
	}

	if failures > 0 {
		os.Exit(1)
	}
	scale256 := "measured"
	if scale256Skipped {
		scale256 = "skipped (<4 cores)"
	}
	fmt.Printf("bench-gate: OK (%d ten-layer benchmarks at 0 allocs/op incl. %d observed with live histograms, %d 8-member net runs >= 2 subs/frame, wire %.2f bytes/msg = %.3fx unbatched classic %.2f, obs-ratio %.3f, interp-share ratio %.3f, %d scale points identical, xframe identity OK, %.0f causal spans complete, 256-member point %s)\n",
		tenLayer, obsUnit, net8, wireBytes, bytesRatio, classicBytes, obsRatio, interpRatio, scalePoints, spanCount, scale256)
}

// prFromPath reads the PR number out of a trajectory file named
// BENCH_PR<n>.json; any other name records no number.
func prFromPath(path string) (int, bool) {
	rest, ok := strings.CutPrefix(filepath.Base(path), "BENCH_PR")
	if !ok {
		return 0, false
	}
	num, ok := strings.CutSuffix(rest, ".json")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(num)
	return n, err == nil && n > 0
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench-gate: "+format+"\n", args...)
	os.Exit(1)
}
