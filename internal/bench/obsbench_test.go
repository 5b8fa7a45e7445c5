package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestWriteFlightTraceChromeJSON pins the external format contract: the
// flight workload's trace is valid Chrome trace_event JSON with one
// named thread (track) per member and at least one instant event on
// each.
func TestWriteFlightTraceChromeJSON(t *testing.T) {
	const members = 4
	var buf bytes.Buffer
	res, err := WriteFlightTrace(&buf, members, 40, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recorder == nil || res.Recorder.Members() != members {
		t.Fatalf("recorder missing or wrong shape: %+v", res.Recorder)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	namedTracks := map[int]bool{}
	instants := map[int]int{}
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			namedTracks[e.Tid] = true
		case e.Ph == "i":
			instants[e.Tid]++
		}
	}
	for r := 0; r < members; r++ {
		if !namedTracks[r] {
			t.Fatalf("member %d has no thread_name metadata", r)
		}
		if instants[r] == 0 {
			t.Fatalf("member %d has no instant events", r)
		}
	}
	if len(namedTracks) != members {
		t.Fatalf("trace has %d named tracks, want %d", len(namedTracks), members)
	}

	// The run's metrics must surface the MACH bypass accounting.
	if hit, ok := res.Metrics.Get("member0/mach/ccp_hit"); !ok || hit == 0 {
		t.Fatalf("member0/mach/ccp_hit = %d, %t; want > 0", hit, ok)
	}
}

// TestMeasureObsOverheadShape runs one tiny overhead pair and checks
// both sides measured the same workload.
func TestMeasureObsOverheadShape(t *testing.T) {
	o, err := MeasureObsOverhead(200)
	if err != nil {
		t.Fatal(err)
	}
	if o.Off.Rounds != 200 || o.On.Rounds != 200 {
		t.Fatalf("rounds mismatch: %+v", o)
	}
	if o.Ratio <= 0 {
		t.Fatalf("ratio = %v", o.Ratio)
	}
	if o.On.MsgsPerSec <= 0 || o.Off.MsgsPerSec <= 0 {
		t.Fatalf("missing throughput: %+v", o)
	}
}
