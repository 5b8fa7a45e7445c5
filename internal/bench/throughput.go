package bench

import (
	"fmt"
	"time"

	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/layers"
	"ensemble/internal/obs"
	"ensemble/internal/opt"
	"ensemble/internal/perfcount"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// The sustained-throughput harness complements the code-latency tables:
// where Table 1 times individual segments with the network factored out,
// this drives back-to-back steady-state cast rounds — submit, marshal,
// wire, unmarshal, deliver, plus the periodic housekeeping sweeps — and
// reports messages per second and allocation pressure. It is the
// regression gate for the paper's first optimization (§4, item 1:
// avoiding garbage-collection cycles): the steady-state data path is
// expected to run allocation-free.

// ThroughputRunner drives steady-state cast rounds between a rank-0
// sender and a rank-1 receiver under one configuration. Construction
// (stack build, bypass compilation) is separated from Run so benchmarks
// can exclude setup from the timed region.
type ThroughputRunner struct {
	cfg       Config
	payload   []byte
	delivered int

	submit func()
	sweep  func(now int64)
	rounds int

	// Outgoing wires coalesce in per-member Batchers that are flushed
	// every flushEvery rounds (and at the end of every Run), so the frame
	// encode and the receive link's decode — the path every member's
	// traffic takes — are on the measured path.
	batch [2]*transport.Batcher

	// Observed runners carry the full obs substrate on the measured
	// path: every emitted wire bumps a registry counter and lands a
	// flight record. This is the configuration the overhead gate (Gate 4)
	// measures — it must stay allocation-free and within 3% of the
	// unobserved throughput.
	obsReg  *obs.Registry
	obsRec  *obs.Recorder
	obsOut  [2]*obs.Counter
	obsHist [2]*obs.Histogram
}

// wirePump moves marshaled packets between the two members without
// recursion: a send snapshots the wire into a recycled buffer (the
// sender's marshal buffer is reused, so the image is only valid during
// the call) and the outermost send drains the queue. Queue slots and
// buffers are recycled, so the steady state allocates nothing, and a
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
	if p.active {
		return
	}
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
	r := &ThroughputRunner{cfg: cfg, payload: make([]byte, size)}
	if observed {
		// The registry and recorder must exist before init*, because the
		// emit closures (where the instrumentation hangs) are captured
		// there.
		r.obsReg = obs.NewRegistry()
		r.obsRec = obs.NewRecorder(2, 1024)
		for m := range r.obsOut {
			sc := r.obsReg.Scope(fmt.Sprintf("member%d/", m))
			r.obsOut[m] = sc.Counter("wires_out")
			r.obsHist[m] = sc.Histogram("wire_bytes")
		}
		r.obsReg.Func("delivered", func() int64 { return int64(r.delivered) })
		r.obsReg.Func("rounds", func() int64 { return int64(r.rounds) })
	}
	switch cfg {
	case IMP, FUNC:
		mode := stack.Imp
		if cfg == FUNC {
			mode = stack.Func
		}
		if err := r.initStacks(names, mode); err != nil {
			return nil, err
		}
	case MACH:
		if err := r.initMach(names); err != nil {
			return nil, err
		}
	case HAND:
		if err := r.initHand(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("bench: unknown config %d", cfg)
	}
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
		// Bare wires: no epoch prefix, so the default prefix arity 0.
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
	link := transport.NewFrameWalker(0, false)
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

// initStacks wires two plain stacks back to back over an in-process
// perfect link: every outgoing data event is marshaled and pumped into
// the peer, so the transport is on the measured path (unlike the
// latency harness, which times it separately).
func (r *ThroughputRunner) initStacks(names []string, mode stack.Mode) error {
	var stks [2]stack.Stack
	var wbufs [2]transport.Writer
	pump := newPump(func(to int, wire []byte) {
		up, err := unmarshalBorrowed(wire)
		if err != nil {
			panic(fmt.Sprintf("bench: unmarshal: %v", err))
		}
		stks[to].DeliverUp(up)
	})
	emit := r.emitters(pump)
	for m := 0; m < 2; m++ {
		m := m
		cfg := layer.DefaultConfig(benchView(2, m))
		stk, err := stack.Build(names, cfg, mode, stack.Callbacks{
			App: func(ev *event.Event) {
				if (ev.Type == event.ECast || ev.Type == event.ESend) && ev.ApplMsg {
					r.delivered++
				}
			},
			Net: func(ev *event.Event) {
				if ev.Type != event.ECast && ev.Type != event.ESend {
					return
				}
				if err := transport.Marshal(ev, m, &wbufs[m]); err != nil {
					panic(fmt.Sprintf("bench: marshal: %v", err))
				}
				emit[m](1-m, wbufs[m].Seal())
			},
		})
		if err != nil {
			return err
		}
		stks[m] = stk
	}
	r.submit = func() { stks[0].SubmitDn(event.CastEv(r.payload)) }
	r.sweep = func(now int64) {
		stks[0].DeliverUp(event.TimerEv(now))
		stks[1].DeliverUp(event.TimerEv(now))
	}
	return nil
}

func (r *ThroughputRunner) initMach(names []string) error {
	var engs [2]*opt.Engine
	pump := newPump(func(to int, wire []byte) { engs[to].Packet(wire) })
	emit := r.emitters(pump)
	for m := 0; m < 2; m++ {
		m := m
		eng, err := opt.NewEngine(names, layer.DefaultConfig(benchView(2, m)), stack.Func)
		if err != nil {
			return err
		}
		eng.Deliver = func(int, []byte, bool) { r.delivered++ }
		eng.ArrivalsBorrowed = true // the pump recycles its buffers
		eng.SendWire = func(cast bool, dst int, wire []byte) {
			to := dst
			if cast {
				to = 1 - m
			}
			emit[m](to, wire)
		}
		engs[m] = eng
	}
	r.submit = func() { engs[0].Cast(r.payload) }
	r.sweep = func(now int64) {
		engs[0].Timer(now)
		engs[1].Timer(now)
	}
	return nil
}

func (r *ThroughputRunner) initHand() error {
	var hands [2]*layers.HandEngine
	pump := newPump(func(to int, wire []byte) { hands[to].Packet(wire) })
	emit := r.emitters(pump)
	for m := 0; m < 2; m++ {
		m := m
		h, err := layers.NewHandEngine(layer.DefaultConfig(benchView(2, m)), stack.Func)
		if err != nil {
			return err
		}
		h.Deliver = func(int, []byte, bool) { r.delivered++ }
		h.SendWire = func(cast bool, dst int, wire []byte) {
			to := dst
			if cast {
				to = 1 - m
			}
			emit[m](to, wire)
		}
		hands[m] = h
	}
	r.submit = func() { hands[0].Cast(r.payload) }
	r.sweep = func(now int64) {
		hands[0].Timer(now)
		hands[1].Timer(now)
	}
	return nil
}

// Run drives n cast rounds, sweeping the housekeeping timers every 256
// rounds as the latency harness does (stability gossip keeps the
// retransmission buffers garbage-collected during long runs). The
// batchers flush every flushEvery rounds and once more at the end, so
// every submitted round is delivered before Run returns.
func (r *ThroughputRunner) Run(n int) {
	for i := 0; i < n; i++ {
		r.submit()
		r.rounds++
		if r.rounds%flushEvery == 0 {
			r.flush()
		}
		if r.rounds%256 == 0 {
			r.sweep(int64(r.rounds) * int64(1e6))
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
func (r *ThroughputRunner) Delivered() int { return r.delivered }

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
// (registry + flight recorder) live on the emit path — the overhead
// configuration Gate 4 compares against the unobserved figures.
func MeasureObservedThroughput(cfg Config, names []string, size, rounds int) (Throughput, error) {
	return measureThroughput(cfg, names, size, rounds, true)
}

func measureThroughput(cfg Config, names []string, size, rounds int, observed bool) (Throughput, error) {
	r, err := newThroughputRunner(cfg, names, size, observed)
	if err != nil {
		return Throughput{}, err
	}
	r.Run(520) // past the 256-round sweep boundary, see bench_test.go
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

// ThroughputTable renders the sustained-throughput comparison across
// configurations and both evaluation stacks.
func ThroughputTable(rounds int) (string, error) {
	type row struct {
		cfg   Config
		names []string
		label string
	}
	rows := []row{
		{IMP, layers.Stack10(), "10-layer"},
		{FUNC, layers.Stack10(), "10-layer"},
		{MACH, layers.Stack10(), "10-layer"},
		{IMP, layers.Stack4(), "4-layer"},
		{FUNC, layers.Stack4(), "4-layer"},
		{MACH, layers.Stack4(), "4-layer"},
		{HAND, layers.Stack4(), "4-layer"},
	}
	out := "Sustained throughput, 4-byte casts (steady state):\n"
	out += fmt.Sprintf("%-10s %-6s %12s %12s %14s\n", "stack", "cfg", "msgs/sec", "allocs/msg", "allocB/msg")
	for _, rw := range rows {
		tp, err := MeasureThroughput(rw.cfg, rw.names, 4, rounds)
		if err != nil {
			return "", fmt.Errorf("%s/%s: %w", rw.label, rw.cfg, err)
		}
		out += fmt.Sprintf("%-10s %-6s %12.0f %12.3f %14.1f\n",
			rw.label, rw.cfg, tp.MsgsPerSec, tp.AllocsPerMsg, tp.AllocBytesPerMsg)
	}
	return out, nil
}
