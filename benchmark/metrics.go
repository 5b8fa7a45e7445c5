package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// metricDef declares one metric: its name as later issues quote it, its
// unit, which way is better, and for an end-to-end metric the share of
// the baseline's median by which it may worsen (bound > 0). This table
// is the source of BENCHMARK.json (`-manifest` prints it; a test holds
// the file to it).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
	// exact marks a value that is a pure function of the seed on the
	// simulated workloads: counts and virtual-clock times. Two runs of
	// one seed must agree on it to the last digit.
	exact bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are measured on every workload with tracing off, always with
// a real clock or a byte count; none of them can be zero.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25},
	{name: "cast_msgs_per_s", unit: "1/s", better: higher, bound: 0.25},
	{name: "cpu_us_per_delivery", unit: "us", better: lower, bound: 0.25},
	{name: "wall_latency_p50_us", unit: "us", better: lower, bound: 0.25},
	{name: "wire_bytes_per_msg", unit: "B", better: lower, bound: 0.02, exact: true},
	{name: "live_heap_mb", unit: "MB", better: lower, bound: 0.2},
}

// layerNames are the micro-protocol layers with per-layer timings, as
// metric names spell them.
var layerNames = []string{"partialappl", "total", "local", "collect", "frag", "pt2ptw",
	"mflow", "pt2pt", "mnak", "bottom", "suspect", "membership"}

// countedLayers also report handler calls per cast: the layers whose
// work grows with the group.
var countedLayers = []string{"mnak", "collect", "suspect", "membership", "pt2pt", "mflow"}

// perLayer are reported by the traced run; they explain the end-to-end
// numbers and carry no bound.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		// Demoted from the end-to-end list (see README.md): not defined
		// on every workload, exact per seed, or too noisy to gate.
		{name: "wall_latency_p99_us", unit: "us", better: lower},
		{name: "virt_latency_p50_us", unit: "us", better: lower, exact: true},
		{name: "virt_latency_p99_us", unit: "us", better: lower, exact: true},
		{name: "view_change_virt_ms", unit: "ms", better: lower, exact: true},
		{name: "view_change_cpu_ms", unit: "ms", better: lower},
		{name: "failed_ops_share", unit: "share", better: lower},

		{name: "event.pool_news_per_msg", unit: "count", better: lower},
		{name: "event.allocs_per_msg", unit: "count", better: lower},
		{name: "event.alloc_bytes_per_msg", unit: "B", better: lower},
	}
	for _, l := range layerNames {
		m = append(m,
			metricDef{name: "layers." + l + ".dn_self_ns", unit: "ns", better: lower},
			metricDef{name: "layers." + l + ".up_self_ns", unit: "ns", better: lower})
	}
	for _, l := range countedLayers {
		m = append(m, metricDef{name: "layers." + l + ".calls_per_msg", unit: "count", better: lower, exact: true})
	}
	return append(m, []metricDef{
		{name: "stack.imp_total_ns_per_msg", unit: "ns", better: lower},
		{name: "stack.func_total_ns_per_msg", unit: "ns", better: lower},
		{name: "stack.imp_glue_ns_per_msg", unit: "ns", better: lower},
		{name: "stack.func_glue_ns_per_msg", unit: "ns", better: lower},

		{name: "opt.engine_build_ms", unit: "ms", better: lower},
		{name: "opt.cast_dn_ns", unit: "ns", better: lower},
		{name: "opt.packet_up_ns", unit: "ns", better: lower},
		{name: "opt.ccp_check_ns", unit: "ns", better: lower},
		{name: "opt.bypass_hit_share", unit: "share", better: higher, exact: true},
		{name: "opt.interp_share", unit: "share", better: lower, exact: true},
		{name: "opt.ctrl_compressed_share", unit: "share", better: higher, exact: true},
		{name: "opt.uncompressed_per_kmsg", unit: "count", better: lower, exact: true},

		{name: "transport.marshal_ns", unit: "ns", better: lower},
		{name: "transport.unmarshal_ns", unit: "ns", better: lower},
		{name: "transport.batcher_append_ns_per_sub", unit: "ns", better: lower},
		{name: "transport.batcher_flush_ns_per_frame", unit: "ns", better: lower},
		{name: "transport.walklink_ns_per_sub", unit: "ns", better: lower},
		{name: "transport.subs_per_frame", unit: "count", better: higher, exact: true},
		{name: "transport.bytes_per_sub", unit: "B", better: lower, exact: true},
		{name: "transport.delta_sub_share", unit: "share", better: higher, exact: true},
		{name: "transport.xfirst_delta_share", unit: "share", better: higher, exact: true},
		{name: "transport.size_flush_share", unit: "share", better: lower, exact: true},
		{name: "transport.barrier_flush_share", unit: "share", better: higher, exact: true},
		{name: "transport.holds_per_kframe", unit: "count", better: lower, exact: true},
		{name: "transport.hold_us_p50", unit: "us", better: lower, exact: true},
		{name: "transport.gen_bumps_per_kmsg", unit: "count", better: lower, exact: true},
		{name: "transport.resync_bumps_per_kmsg", unit: "count", better: lower, exact: true},
		{name: "transport.hold_stall_share", unit: "share", better: lower},

		{name: "netsim.udp_send_ns_per_datagram", unit: "ns", better: lower},
		{name: "netsim.udp_datagrams_per_msg", unit: "count", better: lower},
		{name: "netsim.udp_send_errors", unit: "count", better: lower},
		{name: "netsim.udp_unknown_source", unit: "count", better: lower},
		{name: "netsim.sched_self_ns_per_delivery", unit: "ns", better: lower},
		{name: "netsim.packets_per_msg", unit: "count", better: lower, exact: true},
		{name: "netsim.dropped_share", unit: "share", better: lower, exact: true},
		{name: "netsim.dup_share", unit: "share", better: lower, exact: true},
		{name: "netsim.gen_misses_per_kmsg", unit: "count", better: lower, exact: true},
		{name: "netsim.resyncs_per_kmsg", unit: "count", better: lower, exact: true},
		{name: "netsim.stale_frames_per_kmsg", unit: "count", better: lower, exact: true},
		{name: "netsim.view_change_packets", unit: "count", better: lower, exact: true},
		{name: "netsim.view_change_bytes", unit: "B", better: lower, exact: true},

		{name: "core.member_build_ms", unit: "ms", better: lower},
		{name: "core.cast_call_ns", unit: "ns", better: lower},
		{name: "core.receive_ns_per_packet", unit: "ns", better: lower},
		{name: "core.timer_ns_per_virt_s", unit: "ns", better: lower},
		{name: "core.stray_packets_per_kmsg", unit: "count", better: lower, exact: true},
		{name: "core.views_installed", unit: "count", better: lower, exact: true},

		{name: "obs.on_off_throughput_ratio", unit: "ratio", better: higher},
		{name: "obs.record_ns", unit: "ns", better: lower},
		{name: "obs.histogram_observe_ns", unit: "ns", better: lower},

		{name: "trace.overhead_share", unit: "share", better: lower},
		{name: "trace.span_cost_ns", unit: "ns", better: lower},
		{name: "trace.breakdown_residual_share", unit: "share", better: lower},
	}...)
}

func findMetric(name string) *metricDef {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for i := range set {
			if set[i].name == name {
				return &set[i]
			}
		}
	}
	return nil
}

// measurement is one reported metric: the median over the run's
// repetitions, with the extremes and every repetition's value beside it.
type measurement struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples,omitempty"`
}

type metricSet map[string]measurement

// put records a metric from its per-repetition values; the name must be
// declared, so a typo fails loudly instead of adding a metric no gate
// knows.
func (s metricSet) put(name string, samples ...float64) {
	def := findMetric(name)
	if def == nil {
		panic("benchmark: undeclared metric " + name)
	}
	lo, hi := minMax(samples)
	s[name] = measurement{Value: median(samples), Unit: def.unit, Min: lo, Max: hi, Samples: samples}
}

// contractLine is the one-line JSON object the benchmark driver reads.
func contractLine(correct bool, attempted, failed int, defs []metricDef, got metricSet) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{correct, attempted, failed, map[string]mv{}}
	for _, d := range defs {
		out.Metrics[d.name] = mv{got[d.name].Value, d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// manifest renders BENCHMARK.json from the tables above.
func manifest(runSeconds int) string {
	var b strings.Builder
	b.WriteString("{\n")
	b.WriteString(`  "command": ["bash", "benchmark/run.sh"],` + "\n")
	b.WriteString(`  "paths": ["benchmark"],` + "\n")
	fmt.Fprintf(&b, "  \"run_seconds\": %d,\n", runSeconds)
	b.WriteString("  \"workloads\": [\n")
	var gated []workload
	for _, w := range workloads {
		if !w.ungated {
			gated = append(gated, w)
		}
	}
	for i, w := range gated {
		fmt.Fprintf(&b, "    {\"name\": %q, \"why\": %q}%s\n", w.name, w.why, comma(i, len(gated)))
	}
	b.WriteString("  ],\n  \"end_to_end\": [\n")
	for i, d := range endToEnd {
		fmt.Fprintf(&b, "    {\"name\": %q, \"unit\": %q, \"better\": %q, \"bound\": %g}%s\n",
			d.name, d.unit, d.better, d.bound, comma(i, len(endToEnd)))
	}
	b.WriteString("  ],\n  \"per_layer\": [\n")
	for i, d := range perLayer {
		fmt.Fprintf(&b, "    {\"name\": %q, \"unit\": %q, \"better\": %q}%s\n", d.name, d.unit, d.better, comma(i, len(perLayer)))
	}
	b.WriteString("  ]\n}\n")
	return b.String()
}

func comma(i, n int) string {
	if i < n-1 {
		return ","
	}
	return ""
}
