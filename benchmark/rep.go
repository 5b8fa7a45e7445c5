package main

import (
	"reflect"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"ensemble/internal/core"
	"ensemble/internal/event"
	"ensemble/internal/netsim"
	"ensemble/internal/opt"
	"ensemble/internal/transport"
)

// counters is what the program's own public counters read at one
// instant; a repetition reports the difference across its data phase.
type counters struct {
	net   netsim.Stats    // simulated medium
	udp   netsim.UDPStats // loopback sockets, summed over members
	batch transport.BatcherStats
	eng   opt.EngineStats
	pool  event.PoolCounters
	// mallocs and allocBytes are runtime.MemStats.Mallocs and TotalAlloc.
	mallocs, allocBytes uint64
	stray               int64 // Member.Stats().StrayPackets
}

// accumulate adds sign times each int64 field of src to the same field
// of dst; both point to the same struct type. The program's stats
// structs are flat lists of int64 counters, and this keeps the
// benchmark's sums and differences in step with whatever they grow.
func accumulate(dst, src any, sign int64) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := 0; i < d.NumField(); i++ {
		if f := d.Field(i); f.Kind() == reflect.Int64 {
			f.SetInt(f.Int() + sign*s.Field(i).Int())
		}
	}
}

// addMember adds one member's counters (batcher, engine, member). Under
// UDP the caller runs it on the member's own Run goroutine.
func (c *counters) addMember(m *core.Member) {
	c.batch.Add(m.Batcher().Stats())
	if e := m.Engine(); e != nil {
		s := e.Stats()
		accumulate(&c.eng, &s, 1)
	}
	c.stray += m.Stats().StrayPackets
}

func (c *counters) readProcess() {
	c.pool = event.ReadPoolCounters()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
}

// since returns c minus o, counter by counter.
func (c counters) since(o counters) counters {
	d := c
	accumulate(&d.net, &o.net, -1)
	accumulate(&d.udp, &o.udp, -1)
	accumulate(&d.batch, &o.batch, -1)
	accumulate(&d.eng, &o.eng, -1)
	accumulate(&d.pool, &o.pool, -1)
	d.mallocs -= o.mallocs
	d.allocBytes -= o.allocBytes
	d.stray -= o.stray
	return d
}

// viewChange is the crash phase of a repetition.
type viewChange struct {
	virtNs  int64 // crash to the last survivor's install, virtual
	cpuS    float64
	packets int64
	bytes   int64
	agreed  bool
}

// repetition is one pass over a workload's fixed work: a fresh group is
// built, one hello cast ends set-up, the data phase runs, and on crash
// workloads one member is stopped.
type repetition struct {
	setupS float64 // group construction to the hello cast delivered everywhere
	wallS  float64 // first submit to last delivery
	cpuS   float64 // process user+sys over the same window
	virtS  float64 // virtual time the data phase covered (0 under UDP)
	casts  int
	// wallLat and virtLat are ns from a cast's submit (on the simulator:
	// its scheduled instant) to its delivery at the last member, per
	// cast in submission order; virtLat is nil under UDP.
	wallLat []int64
	virtLat []int64
	lat     latencySummary
	heapMB  float64
	verdict verdict
	digest  uint64   // of every member's delivery sequence
	delta   counters // across the data phase
	vc      viewChange
	views   int64 // views installed by all members, initial ones included

	// Traced repetitions only: the data phase's span totals, the mean
	// member construction time, and the batcher's hold durations.
	spans         *tracer
	memberBuildNs float64
	holds         []int64
}

func (r *repetition) msgsPerS() float64 { return float64(r.casts) / r.wallS }

// latencySummary is what a run keeps of a repetition's per-cast
// latencies; the arrays themselves are dropped once it is taken, or the
// next repetition's live_heap_mb would weigh them.
type latencySummary struct {
	wallP50, wallP99 int64 // ns
	virtP50, virtP99 int64 // ns; 0 under UDP
	// slowShare is the share of casts that took 10 ms of wall time or more.
	slowShare float64
	// The backlog check, on virtual latency (see backlogGrew).
	early, late int64
	grew        bool
}

func (r *repetition) summarize() {
	s := sortedCopy(r.wallLat)
	r.lat.wallP50, r.lat.wallP99 = quantile(s, 0.5), quantile(s, 0.99)
	slow := len(s) - sort.Search(len(s), func(i int) bool { return s[i] >= int64(10*time.Millisecond) })
	r.lat.slowShare = float64(slow) / float64(max(len(s), 1))
	if r.virtLat != nil {
		v := sortedCopy(r.virtLat)
		r.lat.virtP50, r.lat.virtP99 = quantile(v, 0.5), quantile(v, 0.99)
		r.lat.early, r.lat.late, r.lat.grew = backlogGrew(r.virtLat)
	}
	r.wallLat, r.virtLat = nil, nil
}

// cpuNow is the process's user+sys CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the heap still reachable after forced collection. Two
// cycles, because a sync.Pool gives its contents up over two: what is
// left is what the program holds on purpose (retransmission buffers,
// decode mirrors, free lists), not what a pool happened to have cached.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// backlogGrew reports whether casts late in the schedule waited more
// than 1.5x as long as casts early in it: on an open loop that means
// the schedule outruns the system and the interval is wrong. Late is
// the ninth tenth of the casts — the last tenth drains into an idle
// system, which shows in latency without being backlog — and early is
// the whole first half, whose median neither a slow start nor the step
// of the virtual clock's quantum moves.
func backlogGrew(lat []int64) (early, late int64, grew bool) {
	n := len(lat) / 10
	if n < 1 {
		return 0, 0, false
	}
	early = quantile(sortedCopy(lat[:len(lat)/2]), 0.5)
	late = quantile(sortedCopy(lat[8*n:9*n]), 0.5)
	return early, late, float64(late) > 1.5*float64(early)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func minMax(v []float64) (lo, hi float64) {
	for i, x := range v {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}
