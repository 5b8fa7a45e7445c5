package core

import (
	"fmt"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

// partitionHealSchedule runs a partition-and-heal scenario and returns
// the full observable schedule: every transmission the network sees
// (with its virtual timestamp) interleaved with every delivery and view
// install. The merge path is the interesting part — during heal each
// partition coordinator probes the known addresses outside its view,
// and those probes must go out in a deterministic order.
func partitionHealSchedule(t *testing.T) []string {
	t.Helper()
	var log []string
	g, err := NewClusterGroup(4, netsim.Lossy(0.05), 33, layers.StackVsync(), stack.Imp,
		func(rank int) Handlers {
			return Handlers{
				OnCast: func(origin int, payload []byte) {
					log = append(log, fmt.Sprintf("cast r%d from %d %q", rank, origin, payload))
				},
				OnView: func(v *event.View) {
					log = append(log, fmt.Sprintf("view r%d %v", rank, v))
				},
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	tap := func(from, to event.Addr) bool {
		log = append(log, fmt.Sprintf("tx t=%d %d->%d", g.Cluster.Sim().Now(), from, to))
		return true
	}
	g.Cluster.Net().SetFilter(tap)
	g.Run(int64(2e9))
	g.Cluster.Net().Partition(
		[]event.Addr{g.Members[0].Addr(), g.Members[1].Addr()},
		[]event.Addr{g.Members[2].Addr(), g.Members[3].Addr()},
	)
	g.Run(int64(30e9))
	g.Members[0].Cast([]byte("side A lives"))
	g.Members[2].Cast([]byte("side B lives"))
	g.Run(int64(5e9))
	g.Cluster.Net().SetFilter(tap) // Partition replaced the filter; restore the tap = heal
	g.Run(int64(60e9))
	log = append(log, fmt.Sprintf("stats %+v", g.Cluster.Net().Stats()))
	return log
}

// TestMergeScheduleDeterministic replays the same partition-heal run
// twice and requires byte-identical schedules, transmission by
// transmission. This pins the class of bug where emission order leaks
// map iteration order (here: the coordinator's merge probes to the
// addresses outside its view) — the simulator's loss and latency draws
// are positional, so two sends swapping places reshuffles the entire
// downstream schedule, and the same seed stops reproducing the same
// run.
func TestMergeScheduleDeterministic(t *testing.T) {
	a := partitionHealSchedule(t)
	b := partitionHealSchedule(t)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at entry %d:\n  run 1: %s\n  run 2: %s", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
}
