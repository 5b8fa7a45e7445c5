package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// boundsFile is the part of BENCHMARK.json the comparison needs.
type boundsFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// spread is the distance between the first and third quartile of the
// repetitions' values as a share of their median — the same measure the
// driver takes across runs, here across one run's repetitions.
func spread(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	// statistics.quantiles(values, n=4), exclusive method.
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	d := (q(3) - q(1)) / med
	if d < 0 {
		d = -d
	}
	return d
}

// verdict of one (metric, workload) pair.
const (
	statusOK         = "ok"
	statusWorse      = "worse"
	statusUnresolved = "unresolved" // a side's own spread is wider than the bound
	statusSame       = "same"       // no bound applies, equal values
	statusDiffers    = "differs"    // no bound applies: for the reader to judge
)

// judge compares b against baseline a. worsening is the change in the
// bad direction as a share of a's median; bound <= 0 means the metric is
// not gated.
func judge(a, b measurement, better string, bound float64) (status string, worsening float64) {
	if a.Value != 0 {
		worsening = (b.Value - a.Value) / a.Value
	} else if b.Value != 0 {
		worsening = 1
	}
	if better == higher {
		worsening = -worsening
	}
	if bound <= 0 {
		if a.Value == b.Value {
			return statusSame, worsening
		}
		return statusDiffers, worsening
	}
	if spread(a.Samples) > bound || spread(b.Samples) > bound {
		return statusUnresolved, worsening
	}
	if worsening > bound {
		return statusWorse, worsening
	}
	return statusOK, worsening
}

// compareLedgers prints one row per (metric, workload) and returns the
// exit code: 1 when any bounded metric got worse by more than its bound.
func compareLedgers(pathA, pathB, boundsPath string) int {
	var a, b ledger
	var bf boundsFile
	for path, v := range map[string]any{pathA: &a, pathB: &b, boundsPath: &bf} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	if a.Machine != b.Machine {
		fmt.Printf("note: the two sets name different machines or commits:\n  a: %+v\n  b: %+v\n", a.Machine, b.Machine)
	}
	if a.Seed != b.Seed {
		fmt.Printf("note: seeds differ (%d, %d): metrics that are exact per seed will differ\n", a.Seed, b.Seed)
	}
	worse := 0
	fmt.Printf("%-18s %-14s %-40s %14s %14s %9s %9s\n", "status", "workload", "metric", "a", "b", "change", "bound")
	row := func(workload, metric, better string, bound float64, ra, rb *runResult) {
		ma, okA := ra.Metrics[metric]
		mb, okB := rb.Metrics[metric]
		if !okA || !okB {
			fmt.Printf("%-18s %-14s %-40s\n", "missing", workload, metric)
			worse++
			return
		}
		status, w := judge(ma, mb, better, bound)
		if status == statusWorse {
			worse++
		}
		boundText := "-"
		if bound > 0 {
			boundText = fmt.Sprintf("%.0f%%", 100*bound)
		}
		fmt.Printf("%-18s %-14s %-40s %14.6g %14.6g %+8.1f%% %9s\n", status, workload, metric, ma.Value, mb.Value, 100*w, boundText)
	}
	for _, w := range workloads {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if ra == nil || rb == nil {
			fmt.Printf("%-18s %-14s\n", "missing", w.name)
			worse++
			continue
		}
		if rb.Failed > ra.Failed && !w.ungated {
			fmt.Printf("%-18s %-14s %-40s %14d %14d\n", statusWorse, w.name, "failed casts", ra.Failed, rb.Failed)
			worse++
		}
		for _, d := range bf.EndToEnd {
			bound := d.Bound
			if w.ungated {
				bound = 0
			}
			row(w.name, d.Name, d.Better, bound, ra, rb)
		}
		if ta, tb := a.Traced[w.name], b.Traced[w.name]; ta != nil && tb != nil {
			for _, d := range bf.PerLayer {
				row(w.name, d.Name, d.Better, 0, ta, tb)
			}
		}
	}
	if worse > 0 {
		fmt.Printf("%d (metric, workload) pairs are worse than their bound or missing\n", worse)
		return 1
	}
	return 0
}
