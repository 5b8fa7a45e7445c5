package bench

import (
	"fmt"
	"time"

	"ensemble/internal/event"
	"ensemble/internal/obs"
	"ensemble/internal/perfcount"
	"ensemble/internal/transport"
)

// The sustained-throughput harness complements the code-latency tables:
// where Table 1 times individual segments with the network factored out,
// this drives back-to-back steady-state cast rounds — submit, marshal,
// wire, unmarshal, deliver, plus the periodic housekeeping sweeps — and
// reports messages per second and allocation pressure. It holds the
// paper's first optimization (§4, item 1: avoiding garbage-collection
// cycles): the steady-state data path runs allocation-free
// (TestThroughputAllocFree).

// ThroughputRunner drives steady-state cast rounds between a rank-0
// sender and a rank-1 receiver under one configuration. Construction
// (stack build, bypass compilation) is separated from Run so benchmarks
// can exclude setup from the timed region.
type ThroughputRunner struct {
	payload []byte
	pair    *pair
	rounds  int

	// Outgoing wires coalesce in per-member Batchers that are flushed
	// every flushEvery rounds (and at the end of every Run), so the frame
	// encode and the receive link's decode — the path every member's
	// traffic takes — are on the measured path.
	batch [2]*transport.Batcher

	// Observed runners carry the full obs substrate on the measured
	// path: every emitted wire bumps a registry counter and lands a
	// flight record. It must stay as allocation-free as the bare runner.
	obsReg  *obs.Registry
	obsRec  *obs.Recorder
	obsOut  [2]*obs.Counter
	obsHist [2]*obs.Histogram
}

// wirePump moves marshaled packets between the two members without
// recursion: a send snapshots the wire into a recycled buffer (the
// sender's marshal buffer is reused, so the image is only valid during
// the call) and the outermost send drains the queue — or, while a caller
// holds the pump (active), leaves it for the caller's drain. Queue slots
// and buffers are recycled, so the steady state allocates nothing, and a
// packet's buffer is only reused after its delivery has returned —
// every longer-lived reference (retransmission buffers, reassembly) is
// copied by the buffering layer that keeps it.
type wirePump struct {
	pending []wireItem
	head    int
	spare   [][]byte
	active  bool
	deliver func(to int, wire []byte)
}

type wireItem struct {
	to  int
	buf []byte
}

func (p *wirePump) send(to int, wire []byte) {
	var buf []byte
	if n := len(p.spare); n > 0 {
		buf = p.spare[n-1]
		p.spare = p.spare[:n-1]
	}
	p.pending = append(p.pending, wireItem{to: to, buf: append(buf[:0], wire...)})
	if !p.active {
		p.drain()
	}
}

// drain delivers every queued wire, and every wire those deliveries
// send, in order.
func (p *wirePump) drain() {
	p.active = true
	for p.head < len(p.pending) {
		it := p.pending[p.head]
		p.pending[p.head] = wireItem{}
		p.head++
		p.deliver(it.to, it.buf)
		p.spare = append(p.spare, it.buf)
	}
	p.pending = p.pending[:0]
	p.head = 0
	p.active = false
}

// flushEvery is the explicit flush cadence in rounds: 8 gives the steady
// state a real coalescing factor (~8 subs per data frame) while keeping
// flow-control feedback timely.
const flushEvery = 8

// NewThroughputRunner builds the two-member system for cfg.
func NewThroughputRunner(cfg Config, names []string, size int) (*ThroughputRunner, error) {
	return newThroughputRunner(cfg, names, size, false)
}

// NewObservedThroughputRunner builds the two-member system with the
// metrics registry and flight recorder wired onto the emit path (see
// ThroughputRunner.obsReg).
func NewObservedThroughputRunner(cfg Config, names []string, size int) (*ThroughputRunner, error) {
	return newThroughputRunner(cfg, names, size, true)
}

func newThroughputRunner(cfg Config, names []string, size int, observed bool) (*ThroughputRunner, error) {
	p, err := newPair(cfg, names, nil, nil)
	if err != nil {
		return nil, err
	}
	r := &ThroughputRunner{payload: make([]byte, size), pair: p}
	if observed {
		// The registry and recorder must exist before emitters, because the
		// emit closures (where the instrumentation hangs) are built there.
		r.obsReg = obs.NewRegistry()
		r.obsRec = obs.NewRecorder(2, 1024)
		for m := range r.obsOut {
			sc := r.obsReg.Scope(fmt.Sprintf("member%d/", m))
			r.obsOut[m] = sc.Counter("wires_out")
			r.obsHist[m] = sc.Histogram("wire_bytes")
		}
		r.obsReg.Func("delivered", func() int64 { return int64(p.delivered) })
		r.obsReg.Func("rounds", func() int64 { return int64(r.rounds) })
	}
	emit := r.emitters(newPump(p.packet))
	p.out = func(from, to int, wire []byte) { emit[from](to, wire) }
	return r, nil
}

// pumpSink adapts the wirePump to the Batcher's sink contract for the
// two-member harness (addresses are the member indexes 0 and 1). The
// pump copies frame data during send, which is exactly the contract the
// Batcher requires before it recycles the frame buffer.
type pumpSink struct{ pump *wirePump }

func (s pumpSink) Send(from, to event.Addr, data []byte) { s.pump.send(int(to), data) }
func (s pumpSink) Cast(from event.Addr, data []byte)     { s.pump.send(1-int(from), data) }

// emitters builds the members' Batchers and returns the per-member wire
// emitters that append into them.
func (r *ThroughputRunner) emitters(pump *wirePump) [2]func(to int, wire []byte) {
	var emit [2]func(to int, wire []byte)
	for m := range emit {
		// Bare wires: no epoch prefix.
		b := transport.NewBatcher(pumpSink{pump: pump}, event.Addr(m), 0)
		r.batch[m] = b
		emit[m] = func(to int, wire []byte) { b.Send(event.Addr(to), wire) }
		if r.obsReg == nil {
			continue
		}
		// Observed runner: count, flight-record, and histogram every
		// emitted wire. All three operations are allocation-free (atomic
		// adds, fixed-ring store, fixed-bucket add), so the observed hot
		// path stays at 0 allocs/op — that is the point.
		cnt, hist, trk := r.obsOut[m], r.obsHist[m], r.obsRec.Track(m)
		emit[m] = func(to int, wire []byte) {
			cnt.Inc()
			hist.Observe(int64(len(wire)))
			trk.Record(int64(r.rounds), obs.KindPktOut, obs.DirDn, 0, cnt.Load())
			b.Send(event.Addr(to), wire)
		}
	}
	return emit
}

// flush alternates the two members until neither has pending frames,
// because flushing one member's frames can make the other emit
// (acknowledgments, credit).
func (r *ThroughputRunner) flush() {
	for r.batch[0].Pending()+r.batch[1].Pending() > 0 {
		r.batch[0].Flush()
		r.batch[1].Flush()
	}
}

// newPump builds the in-process perfect link: frames the members'
// batchers flush are queued, then handed to one receive link that fans
// each back out into deliver calls, one per sub. The link runs in
// scratch mode: the pump already requires receivers to consume (or
// copy) a wire during delivery, so reconstructed subs may share one
// recycled buffer — keeping the path at 0 allocs.
func newPump(deliver func(to int, sub []byte)) *wirePump {
	link := transport.NewWalker(false)
	var subTo [2]func(sub []byte)
	for m := range subTo {
		m := m
		subTo[m] = func(sub []byte) { deliver(m, sub) }
	}
	return &wirePump{deliver: func(to int, frame []byte) {
		if resync, _ := link.WalkLink(event.Addr(1-to), event.Addr(to), frame, subTo[to]); resync != nil {
			panic("bench: a frame missed its base on the lossless FIFO pump")
		}
	}}
}

// Run drives n cast rounds, sweeping the housekeeping timers every 256
// rounds as the latency harness does (stability gossip keeps the
// retransmission buffers garbage-collected during long runs). The
// batchers flush every flushEvery rounds and once more at the end, so
// every submitted round is delivered before Run returns.
func (r *ThroughputRunner) Run(n int) {
	for i := 0; i < n; i++ {
		r.pair.ends[0].Cast(r.payload)
		r.rounds++
		if r.rounds%flushEvery == 0 {
			r.flush()
		}
		if r.rounds%256 == 0 {
			r.pair.timers(int64(r.rounds) * int64(1e6))
			r.flush()
		}
	}
	r.flush()
}

// BatchStats reports the aggregate batching counters across both
// members.
func (r *ThroughputRunner) BatchStats() transport.BatcherStats {
	s := r.batch[0].Stats()
	s.Add(r.batch[1].Stats())
	return s
}

// Delivered reports application deliveries observed so far (two per
// round for stacks with self-delivery, one otherwise).
func (r *ThroughputRunner) Delivered() int { return r.pair.delivered }

// Metrics snapshots the observed runner's registry (empty when the
// runner was built without observability).
func (r *ThroughputRunner) Metrics() obs.Snapshot {
	if r.obsReg == nil {
		return nil
	}
	return r.obsReg.Snapshot()
}

// FlightRecorder exposes the observed runner's recorder (nil when the
// runner was built without observability).
func (r *ThroughputRunner) FlightRecorder() *obs.Recorder { return r.obsRec }

// Throughput is one sustained run's result.
type Throughput struct {
	Config    Config
	Layers    int
	Size      int
	Rounds    int
	Delivered int
	Wall      time.Duration
	// MsgsPerSec counts sender cast rounds completed per second (each
	// round carries one payload end to end).
	MsgsPerSec float64
	// AllocsPerMsg and AllocBytesPerMsg are the steady-state allocation
	// pressure per round; the zero-allocation goal is AllocsPerMsg < 1.
	AllocsPerMsg     float64
	AllocBytesPerMsg float64
	GCCycles         uint32
	// SubsPerFrame is the observed coalescing factor; BytesPerMsg is
	// frame bytes on the wire per cast round.
	SubsPerFrame float64
	BytesPerMsg  float64
}

// MeasureThroughput runs `rounds` steady-state cast rounds of
// `size`-byte messages and reports throughput plus allocation counters.
// A warmup of 512 rounds runs first so pools and windows reach steady
// state before the bracketed measurement.
func MeasureThroughput(cfg Config, names []string, size, rounds int) (Throughput, error) {
	return measureThroughput(cfg, names, size, rounds, false)
}

// MeasureObservedThroughput is MeasureThroughput with the obs substrate
// (registry + flight recorder) live on the emit path — the observed side
// of MeasureObsOverhead.
func MeasureObservedThroughput(cfg Config, names []string, size, rounds int) (Throughput, error) {
	return measureThroughput(cfg, names, size, rounds, true)
}

func measureThroughput(cfg Config, names []string, size, rounds int, observed bool) (Throughput, error) {
	r, err := newThroughputRunner(cfg, names, size, observed)
	if err != nil {
		return Throughput{}, err
	}
	r.Run(520) // past the 256-round sweep boundary, see TestThroughputAllocFree
	base := r.Delivered()
	baseBytes := r.BatchStats().FrameBytes
	smp, err := perfcount.Measure(func() error { r.Run(rounds); return nil })
	if err != nil {
		return Throughput{}, err
	}
	got := r.Delivered() - base
	if got < rounds {
		return Throughput{}, fmt.Errorf("bench: %d rounds but only %d deliveries", rounds, got)
	}
	n := float64(rounds)
	tp := Throughput{
		Config:           cfg,
		Layers:           len(names),
		Size:             size,
		Rounds:           rounds,
		Delivered:        got,
		Wall:             smp.Wall,
		MsgsPerSec:       n / smp.Wall.Seconds(),
		AllocsPerMsg:     float64(smp.Mallocs) / n,
		AllocBytesPerMsg: float64(smp.AllocBytes) / n,
		GCCycles:         smp.GCCycles,
	}
	if bs := r.BatchStats(); bs.Frames > 0 {
		tp.SubsPerFrame = float64(bs.SubPackets) / float64(bs.Frames)
		tp.BytesPerMsg = float64(bs.FrameBytes-baseBytes) / n
	}
	return tp, nil
}
