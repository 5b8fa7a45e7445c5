package bench

import (
	"encoding/binary"
	"fmt"
	"time"

	"ensemble/internal/core"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/opt"
	"ensemble/internal/stack"
)

// The mixed-traffic workload exercises every dispatch path at once:
// members ring-send to their successors every round (pt2pt send path —
// and, because the sends flow one way around the ring, the receivers'
// piggyback windows never reset and explicit acknowledgments fire),
// cast periodically (data-cast paths), and the lossy link forces
// retransmission sweeps (control retransmission path, plus CCP misses
// when a duplicate arrives after the gap closed). It runs on the FIFO
// stack, whose traffic is exactly this mix — the 10-layer stack's
// sequencer and stability gossip would add interpreted control traffic
// the dispatch family deliberately leaves alone (see opt/control.go),
// drowning the signal measured here. TestMixedTrafficStaysCompiled
// holds the interpreted (full-stack) share of routed events near zero,
// and requires control traffic to leave compressed.

// MixedStats is one mixed-traffic run's dispatch accounting, summed
// over all members. The group installs exactly one view, so the
// engines' per-view counters cover the whole run.
type MixedStats struct {
	Members, Rounds int
	Wall            time.Duration
	// Hits[p] counts events routed to path p (PathFullStack hits are
	// interpreter fall-throughs); Misses[p] counts probed-and-failed.
	Hits, Misses [opt.NumPaths]int64
	// CtrlCompressed / CtrlFull count stack-exit control sends that were
	// emitted compressed vs fully marshaled; Uncompressed counts
	// compressed arrivals that missed their CCP and were expanded.
	CtrlCompressed, CtrlFull, Uncompressed int64
	// Delivered counts application deliveries (casts and sends) across
	// all members.
	Delivered int64
}

// TotalRouted is the number of routed events across all paths.
func (s MixedStats) TotalRouted() int64 {
	var sum int64
	for _, h := range s.Hits {
		sum += h
	}
	return sum
}

// InterpShare is the fraction of routed events that fell through to the
// interpreted full stack.
func (s MixedStats) InterpShare() float64 {
	total := s.TotalRouted()
	if total == 0 {
		return 0
	}
	return float64(s.Hits[opt.PathFullStack]) / float64(total)
}

// MeasureMixedTraffic drives the mixed workload over a lossy simulated
// link: members all run the optimized FIFO stack, ring-sending twice
// per round and casting every twentieth. Identical seeds yield
// identical traffic.
func MeasureMixedTraffic(members, rounds int, seed int64) (MixedStats, error) {
	if members < 2 {
		return MixedStats{}, fmt.Errorf("bench: mixed traffic needs >= 2 members, got %d", members)
	}
	res := MixedStats{Members: members, Rounds: rounds}
	delivered := make([]int64, members)
	build := func(rank int) core.Handlers {
		return core.Handlers{
			OnCast: func(origin int, payload []byte) { delivered[rank]++ },
			OnSend: func(origin int, payload []byte) { delivered[rank]++ },
		}
	}
	g, err := core.NewOptimizedClusterGroup(members, netsim.Lossy(0.03), seed,
		layers.StackFifo(), stack.Func, build)
	if err != nil {
		return res, err
	}
	// Rounds are spaced a fifth of the 50 ms sweep interval apart, so a
	// loss-induced gap poisons only a few rounds of in-order arrivals
	// before a retransmission closes it. Two sends per round, casts every
	// twentieth — the pt2pt machinery (sends, acks, retransmissions) is
	// the bulk of the traffic, with enough casts in flight to keep every
	// cast path exercised.
	const interval = int64(10e6)
	for i := 0; i < rounds; i++ {
		at := int64(i) * interval
		for r := 0; r < members; r++ {
			r, i := r, i
			g.Do(r, at, func() {
				buf := make([]byte, 16)
				binary.LittleEndian.PutUint64(buf, uint64(i))
				_ = g.Members[r].Send((r+1)%members, buf)
				_ = g.Members[r].Send((r+1)%members, buf)
				if i%20 == 0 {
					g.Members[r].Cast(buf)
				}
			})
		}
	}
	// The tail lets the sweeps retransmit everything the lossy link
	// dropped and the acknowledgment thresholds drain.
	deadline := int64(rounds)*interval + int64(1e9)
	t0 := time.Now()
	g.Run(deadline)
	res.Wall = time.Since(t0)
	for r := 0; r < members; r++ {
		st := g.Members[r].Engine().Stats()
		for p := 0; p < int(opt.NumPaths); p++ {
			res.Hits[p] += st.PathHits[p]
			res.Misses[p] += st.PathMisses[p]
		}
		res.CtrlCompressed += st.CtrlCompressed
		res.CtrlFull += st.CtrlFull
		res.Uncompressed += st.Uncompressed
		res.Delivered += delivered[r]
	}
	if res.Delivered == 0 {
		return res, fmt.Errorf("bench: mixed traffic delivered nothing")
	}
	return res, nil
}

// MixedTable renders the per-path dispatch accounting of one mixed run
// — the `-table ccp` companion to the CCP check cost, and the table
// EXPERIMENTS.md records.
func MixedTable(members, rounds int, seed int64) (string, error) {
	res, err := MeasureMixedTraffic(members, rounds, seed)
	if err != nil {
		return "", err
	}
	var b []byte
	app := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	app("Multi-CCP dispatch: per-path hits/misses, mixed workload (%d members, %d rounds, seed %d)\n",
		members, rounds, seed)
	app("%-18s %10s %10s\n", "path", "hit", "miss")
	for p := opt.PathID(0); p < opt.NumPaths; p++ {
		if res.Hits[p]+res.Misses[p] == 0 {
			continue
		}
		app("%-18s %10d %10d\n", p.String(), res.Hits[p], res.Misses[p])
	}
	app("%-18s %10d\n", "ctrl compressed", res.CtrlCompressed)
	app("%-18s %10d\n", "uncompressed", res.Uncompressed)
	app("%-18s %9.1f%%\n", "interpreted share", 100*res.InterpShare())
	return string(b), nil
}
