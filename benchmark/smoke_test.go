package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"ensemble/internal/deploy"
)

// checkMetrics fails unless got holds exactly the declared metrics, each
// a finite number under a legal name.
func checkMetrics(t *testing.T, where string, defs []metricDef, got metricSet) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d declared", where, len(got), len(defs))
	}
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok {
			t.Errorf("%s: metric %s is missing", where, d.name)
			continue
		}
		if v.Value != v.Value || v.Value > 1e300 || v.Value < -1e300 {
			t.Errorf("%s: metric %s is %v", where, d.name, v.Value)
		}
		if v.Unit != d.unit {
			t.Errorf("%s: metric %s has unit %q, declared %q", where, d.name, v.Unit, d.unit)
		}
	}
}

// TestSmoke runs every workload at a hundredth of its size, tracing off
// and on, and holds the output to the contract: every declared metric
// present once, end-to-end metrics never zero, no failed cast.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := workloads[i].scaled(0.01)
		if w.udp {
			if err := deploy.LoopbackAvailable(); err != nil {
				t.Logf("skipping %s: %v (the full benchmark exits non-zero instead)", w.name, err)
				continue
			}
		}
		res, err := runUntraced(&w, 2, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d notes=%q", w.name, res.Correct, res.Attempted, res.Failed, res.Notes)
		}
		checkMetrics(t, w.name, endToEnd, res.Metrics)
		for _, d := range endToEnd {
			if res.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; they must never be zero", w.name, d.name, res.Metrics[d.name].Value)
			}
		}
		var line struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(contractLine(res.Correct, res.Attempted, res.Failed, endToEnd, res.Metrics)), &line); err != nil {
			t.Fatal(err)
		}
		if len(line.Metrics) != len(endToEnd) || line.Attempted != res.Attempted {
			t.Errorf("%s: the contract line carries %d metrics, attempted %d", w.name, len(line.Metrics), line.Attempted)
		}

		tres, err := runTraced(&w, 2, "", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !tres.Correct || tres.Failed != 0 {
			t.Errorf("%s traced: correct=%t failed=%d notes=%q", w.name, tres.Correct, tres.Failed, tres.Notes)
		}
		checkMetrics(t, w.name+" traced", perLayer, tres.Metrics)
		if w.name == "sim8_frag" || w.name == "sim64_vsync" {
			// Counts and virtual-clock times are a pure function of the
			// seed on the simulator: a second traced run must repeat them
			// to the last digit, or later issues cannot quote them.
			again, err := runTraced(&w, 2, "", io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range perLayer {
				if d.exact && again.Metrics[d.name].Value != tres.Metrics[d.name].Value {
					t.Errorf("%s: %s is exact per seed but read %v, then %v", w.name, d.name, tres.Metrics[d.name].Value, again.Metrics[d.name].Value)
				}
			}
		}
		for _, must := range []string{"core.cast_call_ns", "core.receive_ns_per_packet", "transport.subs_per_frame", "stack.func_total_ns_per_msg"} {
			if tres.Metrics[must].Value <= 0 {
				t.Errorf("%s traced: %s is %v", w.name, must, tres.Metrics[must].Value)
			}
		}
	}
}

// TestManifest holds BENCHMARK.json to the tables it is generated from
// and both to the limits the benchmark driver sets.
func TestManifest(t *testing.T) {
	want := manifest(runSeconds)
	if got, err := os.ReadFile("../BENCHMARK.json"); err != nil {
		t.Logf("no ../BENCHMARK.json to compare (%v)", err)
	} else if string(got) != want {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with `go run . -manifest`")
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes, limit 64 KiB", len(want))
	}
	var m struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(want), &m); err != nil {
		t.Fatal(err)
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	metricNameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !metricNameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why is %d characters or spans lines", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		name(e.Name)
		if !unit.MatchString(e.Unit) || (e.Better != lower && e.Better != higher) || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", e)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s in s, lower is better")
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, e := range m.PerLayer {
		name(e.Name)
		if !unit.MatchString(e.Unit) || (e.Better != lower && e.Better != higher) {
			t.Errorf("per-layer metric %+v", e)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(m.Command) == 0 || len(m.Command) > 32 || len(m.Paths) != 1 {
		t.Errorf("run_seconds %d, command %q, paths %q", m.RunSeconds, m.Command, m.Paths)
	}
}
