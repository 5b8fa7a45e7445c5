package main

import (
	"runtime"

	"ensemble/internal/bench"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
)

// workload is one traffic shape. The counts are frozen: a repetition
// always submits the same casts on the same schedule, so counts, bytes
// and virtual latencies of two runs with one seed are equal, and only
// the wall clock moves. README.md records how the counts were chosen.
type workload struct {
	name string
	why  string

	members int
	stack   []string
	mach    bool // members run the compiled bypass around the stack
	total   bool // the stack delivers in one total order

	// Simulated workloads: an open loop on the virtual clock. Every
	// member casts once per round; rounds start every interval ns.
	profile  netsim.Profile
	interval int64
	shards   int

	// udp is the loopback-socket workload: a closed loop, one client per
	// member, each keeping window casts outstanding.
	udp    bool
	window int

	payload int // bytes per cast
	rounds  int // casts per member per repetition

	// crash ends a repetition by stopping one member and waiting for the
	// survivors to agree on the next view.
	crash bool

	// ungated keeps the workload out of BENCHMARK.json: it runs in the
	// whole set and by name, and -compare shows its rows, but no bound
	// applies to it. sim8_lossy is chaotic in anything that perturbs it
	// (README.md has the measurements), so a bound there would fire on
	// noise.
	ungated bool
}

func (w *workload) casts() int { return w.members * w.rounds }

// procs is the GOMAXPROCS the workload runs under: one P for the
// simulator, whose single goroutine then shares it with the collector
// and does not depend on a second core being free (measured: quartile
// spread of cast_msgs_per_s 4.7% against 5.7% on sim64_vsync, 5.2%
// against 8.0% on sim8_frag); one per member under UDP, as far as the
// machine has them.
func (w *workload) procs() int {
	if w.udp && runtime.NumCPU() >= w.members {
		return w.members
	}
	return 1
}

// scaled returns the workload at a fraction of its size, for tests.
func (w workload) scaled(f float64) workload {
	w.rounds = int(float64(w.rounds) * f)
	if w.rounds < 2 {
		w.rounds = 2
	}
	return w
}

var workloads = []workload{
	{
		name: "udp2_small",
		why:  "2 members on real loopback UDP sockets, MACH, 64 B casts, closed loop 2x16: the only workload with sendto/recvfrom; syscalls, batcher and bypass dominate",
		udp:  true, members: 2, window: 16,
		stack: layers.Stack10(), mach: true, total: true,
		payload: 64, rounds: 150000,
	},
	{
		name:    "sim8_small",
		why:     "8 members on simulated Ethernet, MACH, 64 B all-cast rounds every 200 us virtual: no syscalls, pure CPU per message in bypass, transport and scheduler",
		members: 8, profile: netsim.Ethernet100(), interval: 200_000, shards: 1,
		stack: layers.Stack10(), mach: true, total: true,
		payload: 64, rounds: 6000,
	},
	{
		name:    "sim8_frag",
		why:     "8 members, plain FUNC stack, 20000 B casts in 3 fragments every 2 ms virtual: the interpreted stack, frag, TLV marshal and mflow credit, where a bypass-only change predicts no change",
		members: 8, profile: netsim.Ethernet100(), interval: 2_000_000, shards: 1,
		stack: layers.Stack10(), total: true,
		payload: 20000, rounds: 700,
	},
	{
		name:    "sim8_lossy",
		why:     "sim8_small over 5% loss, 2.5% duplication and jitter: NAKs, retransmission, xframe resync and CCP misses, where a clean-path gain that costs recovery shows",
		members: 8, profile: netsim.Lossy(0.05), interval: 200_000, shards: 1,
		stack: layers.Stack10(), mach: true, total: true,
		payload: 64, rounds: 1000, ungated: true,
	},
	{
		name:    "sim64_vsync",
		why:     "64 members, FUNC vsync stack without total order, 32 B rounds, then one crash and a view change: O(N)-per-delivery work in mnak, collect, suspect and membership dominates",
		members: 64, profile: netsim.Ethernet100(), interval: 200_000, shards: 8,
		stack:   bench.ScaleStack(),
		payload: 32, rounds: 150, crash: true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
