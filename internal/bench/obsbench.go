package bench

import (
	"fmt"
	"io"

	"ensemble/internal/layers"
	"ensemble/internal/obs"
)

// Observability harnesses: the flight-recording workload behind `make
// flight` and the `-flight`/`-metrics` bench flags, and the overhead
// pair (recorder off, then on) that EXPERIMENTS.md reports and Gate 4
// polices.

// FlightRecording drives the standard N-member MACH workload (members
// as they ship, adaptive quantum) with full observability on and returns the run's result, whose
// Recorder and Metrics fields carry the flight and the counters.
func FlightRecording(members, rounds int, seed int64, workers int) (NetThroughput, error) {
	return MeasureObservedNetThroughput(MACH, layers.Stack10(), members, 8, rounds, seed, workers)
}

// WriteFlightTrace runs FlightRecording and writes the Chrome
// trace_event JSON (one track per member, loadable in Perfetto or
// chrome://tracing) to w.
func WriteFlightTrace(w io.Writer, members, rounds int, seed int64, workers int) (NetThroughput, error) {
	res, err := FlightRecording(members, rounds, seed, workers)
	if err != nil {
		return res, err
	}
	return res, obs.WriteChromeTrace(w, res.Recorder)
}

// ObsOverhead is the observability-overhead comparison.
type ObsOverhead struct {
	Off Throughput
	On  Throughput
	// Ratio is observed msgs/sec over unobserved — the Gate 4 floor is
	// 0.97.
	Ratio float64
}

// MeasureObsOverhead runs the two-node MACH 10-layer throughput
// workload back to back, observability off then on. Running both sides
// in one process (same warmup discipline, same GC bracketing) is what
// makes the ratio meaningful across CI machines.
func MeasureObsOverhead(rounds int) (ObsOverhead, error) {
	names := layers.Stack10()
	off, err := MeasureThroughput(MACH, names, 4, rounds)
	if err != nil {
		return ObsOverhead{}, err
	}
	on, err := MeasureObservedThroughput(MACH, names, 4, rounds)
	if err != nil {
		return ObsOverhead{}, err
	}
	return ObsOverhead{Off: off, On: on, Ratio: on.MsgsPerSec / off.MsgsPerSec}, nil
}

// ObsOverheadTable renders the recorder-on/off comparison (the
// EXPERIMENTS.md table).
func ObsOverheadTable(rounds int) (string, error) {
	o, err := MeasureObsOverhead(rounds)
	if err != nil {
		return "", fmt.Errorf("obs overhead: %w", err)
	}
	out := "Observability overhead, MACH 10-layer, 4-byte casts (obs = registry + flight recorder on the emit path):\n"
	out += fmt.Sprintf("%12s %12s %7s %12s %12s\n", "off msg/s", "on msg/s", "ratio", "off allocs", "on allocs")
	out += fmt.Sprintf("%12.0f %12.0f %7.3f %12.3f %12.3f\n",
		o.Off.MsgsPerSec, o.On.MsgsPerSec, o.Ratio, o.Off.AllocsPerMsg, o.On.AllocsPerMsg)
	return out, nil
}
