package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"ensemble/internal/core"
	"ensemble/internal/event"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

// The member-count scaling harness: how far the sharded scheduler and
// the tree-shaped membership carry one simulated group. Three member
// counts anchor the sweep — 16 (one tree level), 64 (flat group, tree
// membership), 256 (16 hierarchical groups of 16 bridged by a spine) —
// each measured sequentially and concurrently, reporting throughput
// per member so the points are comparable across sizes.

// ScaleStack is the scaling benches' protocol stack: StackVsync without
// the total-order layer. Total ordering funnels every cast through the
// rank-0 sequencer, so above ~16 members the benchmark would measure
// the sequencer wall, not the scheduler or the membership topology
// under test. FIFO-reliable virtual synchrony is the property the
// scaling sweep holds fixed.
func ScaleStack() []string {
	return []string{layers.PartialAppl, layers.Membership, layers.Suspect, layers.Local,
		layers.Collect, layers.Frag, layers.Pt2ptw, layers.Mflow, layers.Pt2pt,
		layers.Mnak, layers.Bottom}
}

// ScaleResult is one scaling point.
type ScaleResult struct {
	Members int
	// Groups is 0 for a flat group; otherwise the member set ran as
	// Groups leaf groups of Members/Groups bridged by a spine.
	Groups int
	Rounds int
	// Delivered counts application deliveries across all members.
	Delivered int
	Wall      time.Duration
	// MsgsPerSec is cast submissions per wall second; PerMember divides
	// by the member count — the number the scaling gate bounds.
	MsgsPerSec float64
	PerMember  float64
	// AllocsPerDelivery is heap allocations (runtime.MemStats.Mallocs)
	// during the run per application delivery: the number that catches a
	// per-delivery clone or box coming back into the receive path.
	AllocsPerDelivery float64
	// Identical reports the run's determinism probe: a short traced
	// workload at the same member count, Run vs RunConcurrent, compared
	// byte for byte.
	Identical bool
	Net       netsim.Stats
}

// scaleInterval spaces submission rounds like the net throughput
// harness: 200 µs, so successive rounds overlap on the 80 µs link.
const scaleInterval = int64(200_000)

// scaleShards picks the scheduler shard count for a flat group: one
// shard per 8 members, at least 2 once the group is big enough to
// split.
func scaleShards(members int) int {
	s := members / 8
	if s < 1 {
		s = 1
	}
	return s
}

// MeasureScale drives `rounds` all-cast rounds through a flat group of
// `members` over simulated Ethernet — every member casts once per
// round — and verifies every cast reached every member. The membership
// layer picks its dissemination topology automatically (tree at >= 16).
// workers <= 1 runs sequentially.
func MeasureScale(members, rounds int, seed int64, workers int) (ScaleResult, error) {
	delivered := make([]int, members)
	g, err := core.NewClusterGroup(members, netsim.Ethernet100(), seed, ScaleStack(), stack.Func,
		func(rank int) core.Handlers {
			return core.Handlers{OnCast: func(origin int, payload []byte) { delivered[rank]++ }}
		})
	if err != nil {
		return ScaleResult{}, err
	}
	g.Cluster.SetShards(scaleShards(members))
	g.Cluster.EnableAdaptiveQuantum(400_000, 100_000_000)
	buf := make([]byte, 32)
	for i := 0; i < rounds; i++ {
		at := int64(i) * scaleInterval
		for r := 0; r < members; r++ {
			r := r
			g.Do(r, at, func() { g.Members[r].Cast(buf) })
		}
	}
	deadline := int64(rounds)*scaleInterval + int64(2e9)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	if workers > 1 {
		g.RunConcurrent(deadline, workers)
	} else {
		g.Run(deadline)
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)

	res := ScaleResult{
		Members:    members,
		Rounds:     rounds,
		Wall:       wall,
		MsgsPerSec: float64(members*rounds) / wall.Seconds(),
		Net:        g.Cluster.Net().Stats(),
	}
	res.PerMember = res.MsgsPerSec / float64(members)
	for _, d := range delivered {
		res.Delivered += d
	}
	res.AllocsPerDelivery = float64(after.Mallocs-before.Mallocs) / float64(max(res.Delivered, 1))
	if want := members * members * rounds; res.Delivered < want {
		return res, fmt.Errorf("bench: scale %d: %d deliveries, want %d", members, res.Delivered, want)
	}
	var perr error
	res.Identical, perr = flatIdentityProbe(members, seed, workers)
	if perr != nil {
		return res, perr
	}
	return res, nil
}

// MeasureHierScale is MeasureScale over a hierarchy: groups leaf groups
// of per members bridged by a spine of relays (see core.HierGroup).
// Every leaf member casts once per round and every cast must reach all
// groups*per members through its relay path.
func MeasureHierScale(groups, per, rounds int, seed int64, workers int) (ScaleResult, error) {
	members := groups * per
	delivered := make([]int, members)
	hg, err := core.NewHierGroup(groups, per, netsim.Ethernet100(), seed, ScaleStack(), stack.Func,
		func(global int) core.Handlers {
			return core.Handlers{OnCast: func(origin int, payload []byte) { delivered[global]++ }}
		})
	if err != nil {
		return ScaleResult{}, err
	}
	hg.Cluster.EnableAdaptiveQuantum(400_000, 100_000_000)
	buf := make([]byte, 32)
	for i := 0; i < rounds; i++ {
		at := int64(i) * scaleInterval
		for m := 0; m < members; m++ {
			hg.Cast(m, at, buf)
		}
	}
	// The relay path adds two stack traversals per cast; give the
	// stability tail the same headroom as the flat harness plus one
	// extra second for the spine hop.
	deadline := int64(rounds)*scaleInterval + int64(3e9)
	t0 := time.Now()
	if workers > 1 {
		hg.RunConcurrent(deadline, workers)
	} else {
		hg.Run(deadline)
	}
	wall := time.Since(t0)

	res := ScaleResult{
		Members:    members,
		Groups:     groups,
		Rounds:     rounds,
		Wall:       wall,
		MsgsPerSec: float64(members*rounds) / wall.Seconds(),
		Net:        hg.Cluster.Net().Stats(),
	}
	res.PerMember = res.MsgsPerSec / float64(members)
	for _, d := range delivered {
		res.Delivered += d
	}
	if want := members * members * rounds; res.Delivered < want {
		return res, fmt.Errorf("bench: hier scale %dx%d: %d deliveries, want %d", groups, per, res.Delivered, want)
	}
	var perr error
	res.Identical, perr = hierIdentityProbe(groups, per, seed, workers)
	if perr != nil {
		return res, perr
	}
	return res, nil
}

// flatIdentityProbe replays a short traced workload at full member
// count in both execution modes and compares the cluster's delivery
// traces byte for byte (TestRunMatchesRunConcurrent), kept short so the
// probe does not dominate the measurement.
func flatIdentityProbe(members int, seed int64, workers int) (bool, error) {
	run := func(workers int) (string, error) {
		g, err := core.NewClusterGroup(members, netsim.Ethernet100(), seed+1, ScaleStack(), stack.Func, nil)
		if err != nil {
			return "", err
		}
		g.Cluster.SetShards(scaleShards(members))
		g.Cluster.EnableTrace()
		casters := members
		if casters > 8 {
			casters = 8
		}
		buf := make([]byte, 16)
		for i := 0; i < 2; i++ {
			for r := 0; r < casters; r++ {
				r := r
				g.Do(r, int64(i)*scaleInterval, func() { g.Members[r].Cast(buf) })
			}
		}
		if workers > 1 {
			g.RunConcurrent(int64(200e6), workers)
		} else {
			g.Run(int64(200e6))
		}
		return g.Cluster.TraceString(), nil
	}
	seq, err := run(1)
	if err != nil {
		return false, err
	}
	conc, err := run(workers)
	if err != nil {
		return false, err
	}
	return seq != "" && seq == conc, nil
}

// XFrameIdentityProbe is the wire-format determinism check
// (TestRunMatchesRunConcurrent): a short traced cast workload through a
// MACH group with the production wire defaults left on — cross-frame
// delta chains and the adaptive flush controller — replayed in both
// execution modes and compared byte for byte. A scheduled mid-run
// generation bump on every member forces the chains through the
// full-resend state machine under concurrency, so the probe covers
// exactly the stateful machinery that could have cost determinism.
func XFrameIdentityProbe(members int, seed int64, workers int) (bool, error) {
	run := func(workers int) (string, error) {
		g, err := core.NewOptimizedClusterGroup(members, netsim.Ethernet100(), seed+1, layers.Stack10(), stack.Func, nil)
		if err != nil {
			return "", err
		}
		g.Cluster.EnableTrace()
		g.Cluster.EnableAdaptiveQuantum(400_000, 100_000_000)
		buf := make([]byte, 16)
		for i := 0; i < 4; i++ {
			at := int64(i) * scaleInterval
			for r := 0; r < members; r++ {
				r := r
				g.Do(r, at, func() { g.Members[r].Cast(buf) })
			}
			if i == 1 {
				// Between rounds 1 and 2: every chain restarts from a
				// full-header anchor in a new generation.
				for r := 0; r < members; r++ {
					r := r
					g.Do(r, at+scaleInterval/2, func() { g.Members[r].Batcher().BumpGenerations() })
				}
			}
		}
		if workers > 1 {
			g.RunConcurrent(int64(200e6), workers)
		} else {
			g.Run(int64(200e6))
		}
		return g.Cluster.TraceString(), nil
	}
	seq, err := run(1)
	if err != nil {
		return false, err
	}
	conc, err := run(workers)
	if err != nil {
		return false, err
	}
	return seq != "" && seq == conc, nil
}

// hierIdentityProbe is flatIdentityProbe over the hierarchy.
func hierIdentityProbe(groups, per int, seed int64, workers int) (bool, error) {
	run := func(workers int) (string, error) {
		hg, err := core.NewHierGroup(groups, per, netsim.Ethernet100(), seed+1, ScaleStack(), stack.Func, nil)
		if err != nil {
			return "", err
		}
		hg.Cluster.EnableTrace()
		buf := make([]byte, 16)
		for i := 0; i < 2; i++ {
			for r := 0; r < 8 && r < groups*per; r++ {
				hg.Cast(r, int64(i)*scaleInterval, buf)
			}
		}
		if workers > 1 {
			hg.RunConcurrent(int64(200e6), workers)
		} else {
			hg.Run(int64(200e6))
		}
		return hg.Cluster.TraceString(), nil
	}
	seq, err := run(1)
	if err != nil {
		return false, err
	}
	conc, err := run(workers)
	if err != nil {
		return false, err
	}
	return seq != "" && seq == conc, nil
}

// ViewChange is one measured view change: a graceful leave from a
// group of Members.
type ViewChange struct {
	Members int
	// LatencyVirtual is virtual ns from the leave to the last
	// survivor's view install.
	LatencyVirtual int64
	// Packets/Bytes are the network's deltas over that window —
	// dissemination cost plus whatever gossip the window contains.
	Packets int64
	Bytes   int64
}

// MeasureViewChange runs one graceful leave and reports how long the
// view change took and what it put on the wire. Deterministic: the
// run is sequential, so the same (members, seed) always measures the
// same virtual schedule.
func MeasureViewChange(members int, seed int64) (ViewChange, error) {
	installed := make([]int64, members) // virtual install time per rank; 0 = not yet
	var g *core.ClusterGroup
	g, err := core.NewClusterGroup(members, netsim.Ethernet100(), seed, ScaleStack(), stack.Func,
		func(rank int) core.Handlers {
			return core.Handlers{OnView: func(v *event.View) {
				if installed[rank] == 0 {
					installed[rank] = g.Eps[rank].Now()
				}
			}}
		})
	if err != nil {
		return ViewChange{}, err
	}
	g.Cluster.SetShards(scaleShards(members))
	g.Run(int64(1e9)) // settle the initial view
	for r := range installed {
		installed[r] = 0
	}
	before := g.Cluster.Net().Stats()
	t0 := g.Cluster.Sim().Now()
	leaver := members - 1 // a tree leaf; the coordinator stays put
	g.Do(leaver, 0, func() { g.Members[leaver].Leave() })
	done := func() bool {
		for r := 0; r < members; r++ {
			if r != leaver && installed[r] == 0 {
				return false
			}
		}
		return true
	}
	// Advance in 100 ms slices so the wire-cost window ends close to
	// the last install; bound the whole change at 60 s virtual.
	for i := 0; i < 600 && !done(); i++ {
		g.Run(int64(100e6))
	}
	if !done() {
		return ViewChange{}, fmt.Errorf("bench: view change at %d members never completed", members)
	}
	after := g.Cluster.Net().Stats()
	var last int64
	for r := 0; r < members; r++ {
		if r != leaver && installed[r] > last {
			last = installed[r]
		}
	}
	return ViewChange{
		Members:        members,
		LatencyVirtual: last - t0,
		Packets:        after.Sent - before.Sent,
		Bytes:          after.BytesOnWire - before.BytesOnWire,
	}, nil
}

// ScaleTable renders the member-count scaling sweep plus the
// view-change cost at 8, 16 and 64 members — the `-table scale` entry of
// cmd/ensemble-bench. workers sizes the concurrent runs.
func ScaleTable(workers int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Member-count scaling (FIFO vsync stack, 100Mb Ethernet, all-cast rounds)\n")
	fmt.Fprintf(&b, "%-10s %-8s %-7s %12s %14s %10s %10s\n",
		"members", "layout", "rounds", "msgs/sec", "per-member/s", "identical", "wall")
	type point struct {
		label  string
		run    func(workers int) (ScaleResult, error)
		rounds int
	}
	points := []point{
		{"16 flat", func(w int) (ScaleResult, error) { return MeasureScale(16, 20, 31, w) }, 20},
		{"64 flat", func(w int) (ScaleResult, error) { return MeasureScale(64, 8, 31, w) }, 8},
		{"256 16x16", func(w int) (ScaleResult, error) { return MeasureHierScale(16, 16, 3, 31, w) }, 3},
	}
	for _, p := range points {
		for _, w := range []int{1, workers} {
			label := "seq"
			if w > 1 {
				label = fmt.Sprintf("conc/%d", w)
			}
			res, err := p.run(w)
			if err != nil {
				return "", fmt.Errorf("%s %s: %w", p.label, label, err)
			}
			fmt.Fprintf(&b, "%-10s %-8s %-7d %12.0f %14.1f %10t %10s\n",
				p.label, label, res.Rounds, res.MsgsPerSec, res.PerMember,
				res.Identical, res.Wall.Round(time.Millisecond))
			if w >= workers {
				break // workers == 1: one row is both
			}
		}
	}
	fmt.Fprintf(&b, "\nView change cost: graceful leave, fanout-4 tree dissemination\n")
	fmt.Fprintf(&b, "%-10s %14s %10s %10s\n", "members", "latency(ms)", "packets", "bytes")
	for _, m := range []int{8, 16, 64} {
		vc, err := MeasureViewChange(m, 37)
		if err != nil {
			return "", fmt.Errorf("view change %d: %w", m, err)
		}
		fmt.Fprintf(&b, "%-10d %14.2f %10d %10d\n",
			m, float64(vc.LatencyVirtual)/1e6, vc.Packets, vc.Bytes)
	}
	return b.String(), nil
}
