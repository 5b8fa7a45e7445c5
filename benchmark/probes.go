package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/obs"
	"ensemble/internal/opt"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// Stand-alone probes: pieces of the program driven back to back, with no
// network and no scheduler, so one public function can be timed at a
// time. They run on what the workload produced — its stack, its payload
// size, wires captured from its traffic — and complement the spans taken
// in place, which cannot see inside Member.Cast or the receive callback.

func probeView(n, rank int) *event.View {
	addrs := make([]event.Addr, n)
	for i := range addrs {
		addrs[i] = event.Addr(i + 1)
	}
	return event.NewView("probe", 1, addrs, rank)
}

// pump is an in-process perfect link between two members: a send is
// copied (the sender reuses its buffer) and the outermost send drains
// the queue, so replies never recurse.
type pump struct {
	queue   []pumpItem
	active  bool
	deliver func(to int, wire []byte)
}

type pumpItem struct {
	to   int
	wire []byte
}

func (p *pump) send(to int, wire []byte) {
	p.queue = append(p.queue, pumpItem{to, append([]byte(nil), wire...)})
	if p.active {
		return
	}
	p.active = true
	for i := 0; i < len(p.queue); i++ {
		p.deliver(p.queue[i].to, p.queue[i].wire)
	}
	p.queue = p.queue[:0]
	p.active = false
}

var (
	spanTraverse  = "stack.traverse"
	spanMarshal   = "transport.marshal"
	spanUnmarshal = "transport.unmarshal"
)

// stackProbe casts msgs payloads from rank 0 to rank 1 through two
// stacks of the named layers, every layer wrapped in a shim, and
// returns the spans: one stack.traverse per cast (everything the cast
// set off on both members), layer handlers, marshal and unmarshal.
func stackProbe(names []string, payload []byte, mode stack.Mode, msgs int) (*tracer, error) {
	tr := newTracer(false)
	traverse, marshal, unmarshal := tr.name(spanTraverse), tr.name(spanMarshal), tr.name(spanUnmarshal)
	var stks [2]stack.Stack
	var wbufs [2]transport.Writer
	var fail error
	link := &pump{deliver: func(to int, wire []byte) {
		tr.begin(unmarshal, -1)
		ev, err := transport.Unmarshal(wire)
		tr.end()
		if err != nil {
			fail = err
			return
		}
		stks[to].DeliverUp(ev)
	}}
	delivered := 0
	for m := 0; m < 2; m++ {
		m := m
		states, err := stack.BuildStates(names, layer.DefaultConfig(probeView(2, m)))
		if err != nil {
			return nil, err
		}
		for i, st := range states {
			states[i] = wrapState(st, tr)
		}
		stks[m] = stack.FromStates(states, mode, stack.Callbacks{
			App: func(ev *event.Event) {
				if ev.Type == event.ECast && ev.ApplMsg {
					delivered++
				}
			},
			Net: func(ev *event.Event) {
				if ev.Type != event.ECast && ev.Type != event.ESend {
					return
				}
				tr.begin(marshal, -1)
				err := transport.Marshal(ev, m, &wbufs[m])
				tr.end()
				if err != nil {
					fail = err
					return
				}
				link.send(1-m, wbufs[m].Seal())
			},
		})
		stks[m].SubmitDn(event.InitEv(probeView(2, m)))
	}
	now := int64(0)
	for i := 0; i < msgs && fail == nil; i++ {
		tr.begin(traverse, int64(i))
		stks[0].SubmitDn(event.CastEv(payload))
		tr.end()
		if i%32 == 31 {
			// Housekeeping at the members' own cadence keeps acks and
			// stability flowing, outside the per-cast spans.
			now += int64(50e6)
			stks[0].DeliverUp(event.TimerEv(now))
			stks[1].DeliverUp(event.TimerEv(now))
		}
	}
	if fail != nil {
		return nil, fail
	}
	if delivered < msgs {
		return nil, fmt.Errorf("stack probe delivered %d of %d casts", delivered, msgs)
	}
	return tr, nil
}

// capturedWire is one wire as a member received it: what its sender
// handed the batcher.
type capturedWire struct {
	cast bool
	data []byte
}

// batcherResult is the per-call cost of the batching stages on replayed
// wires.
type batcherResult struct {
	appendNsPerSub  float64
	flushNsPerFrame float64
	walkNsPerSub    float64
	subs, frames    int
	intact          bool // the walker gave back exactly the wires appended
}

type frameSink struct{ frames [][]byte }

func (s *frameSink) Send(from, to event.Addr, data []byte) {
	s.frames = append(s.frames, append([]byte(nil), data...))
}
func (s *frameSink) Cast(from event.Addr, data []byte) {
	s.frames = append(s.frames, append([]byte(nil), data...))
}

// batcherProbe replays wires from one sender to one receiver through a
// fresh Batcher with the member's cross-frame encoding, flushing every
// perFrame subs as the workload's frames did, then walks the frames
// back apart with a fresh FrameWalker. It repeats until it has timed
// wantSubs subs.
func batcherProbe(wires []capturedWire, perFrame, wantSubs int) batcherResult {
	res := batcherResult{intact: true}
	if len(wires) == 0 {
		return res
	}
	if perFrame < 1 {
		perFrame = 1
	}
	const from, to = event.Addr(1), event.Addr(2)
	var appendNs, flushNs, walkNs time.Duration
	for res.subs < wantSubs {
		sink := &frameSink{}
		b := transport.NewBatcher(sink, from, 0)
		b.EnableCrossFrame(transport.EpochPrefixUvarints)
		for i := 0; i < len(wires); i += perFrame {
			end := i + perFrame
			if end > len(wires) {
				end = len(wires)
			}
			t0 := time.Now()
			for _, w := range wires[i:end] {
				if w.cast {
					b.Cast(w.data)
				} else {
					b.Send(to, w.data)
				}
			}
			t1 := time.Now()
			b.Flush()
			appendNs += t1.Sub(t0)
			flushNs += time.Since(t1)
		}
		// One walker per link direction and kind, as a substrate keeps
		// them: cast frames and point-to-point frames are separate chains.
		walker := transport.NewFrameWalker(transport.EpochPrefixUvarints, true)
		var got [][]byte
		t0 := time.Now()
		for _, f := range sink.frames {
			walker.WalkLink(from, to, f, func(sub []byte) { got = append(got, sub) })
		}
		walkNs += time.Since(t0)
		res.subs += len(wires)
		res.frames += len(sink.frames)
		if len(got) != len(wires) {
			res.intact = false
		} else {
			for i := range got {
				if !bytes.Equal(got[i], wires[i].data) {
					res.intact = false
				}
			}
		}
	}
	res.appendNsPerSub = float64(appendNs) / float64(res.subs)
	res.flushNsPerFrame = float64(flushNs) / float64(res.frames)
	res.walkNsPerSub = float64(walkNs) / float64(res.subs)
	return res
}

// engineResult is the cost of the compiled bypass on its own.
type engineResult struct {
	buildMs    float64 // opt.NewEngine: derive, compose, compile
	castDnNs   float64 // Engine.Cast at the sender
	packetUpNs float64 // Engine.Packet at the receiver, per cast wire
	ccpCheckNs float64 // Engine.CheckCCP
}

// engineProbe builds the bypass for the named stack at the workload's
// view size, then drives a two-member pair back to back.
func engineProbe(names []string, members int, payload []byte, msgs int) (engineResult, error) {
	var res engineResult
	var builds []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := opt.NewEngine(names, layer.DefaultConfig(probeView(members, 0)), stack.Func); err != nil {
			return res, err
		}
		builds = append(builds, float64(time.Since(t0))/1e6)
	}
	res.buildMs = median(builds)

	var engs [2]*opt.Engine
	var castNs, upNs time.Duration
	upN := 0
	link := &pump{deliver: func(to int, wire []byte) {
		if to != 1 {
			engs[to].Packet(wire) // acks and credit on their way back
			return
		}
		t0 := time.Now()
		engs[1].Packet(wire)
		upNs += time.Since(t0)
		upN++
	}}
	// The sender's wires wait here until its Cast has returned, so the
	// receiver's work is never charged to the cast.
	var outbox [][]byte
	for m := 0; m < 2; m++ {
		m := m
		eng, err := opt.NewEngine(names, layer.DefaultConfig(probeView(2, m)), stack.Func)
		if err != nil {
			return res, err
		}
		eng.Deliver = func(int, []byte, bool) {}
		eng.SendWire = func(cast bool, dst int, wire []byte) {
			if m == 0 {
				outbox = append(outbox, append([]byte(nil), wire...))
				return
			}
			link.send(0, wire)
		}
		eng.Init(probeView(2, m))
		engs[m] = eng
	}
	now := int64(0)
	for i := 0; i < msgs; i++ {
		t0 := time.Now()
		engs[0].Cast(payload)
		castNs += time.Since(t0)
		for _, w := range outbox {
			link.send(1, w)
		}
		outbox = outbox[:0]
		if i%32 == 31 {
			now += int64(50e6)
			engs[0].Timer(now)
			engs[1].Timer(now)
			for _, w := range outbox {
				link.send(1, w)
			}
			outbox = outbox[:0]
		}
	}
	res.castDnNs = float64(castNs) / float64(msgs)
	if upN > 0 {
		res.packetUpNs = float64(upNs) / float64(upN)
	}
	const checks = 200_000
	t0 := time.Now()
	hit := 0
	for i := 0; i < checks; i++ {
		if engs[0].CheckCCP(true, 0, len(payload)) {
			hit++
		}
	}
	res.ccpCheckNs = float64(time.Since(t0)) / checks
	runtime.KeepAlive(hit) // the loop's result is used, so the loop stays
	return res, nil
}

// obsProbe times the two primitives of the program's observability
// plane: a flight record and a histogram sample.
func obsProbe() (recordNs, observeNs float64) {
	const n = 1_000_000
	trk := obs.NewRecorder(1, 1<<14).Track(0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		trk.Record(int64(i), obs.KindDeliver, obs.DirUp, 0, int64(i))
	}
	recordNs = float64(time.Since(t0)) / n
	var h obs.Histogram
	t0 = time.Now()
	for i := 0; i < n; i++ {
		h.Observe(int64(i))
	}
	observeNs = float64(time.Since(t0)) / n
	return recordNs, observeNs
}

// spanCost measures what one span costs the tracer itself: inside is
// the part charged to the span, outside the part charged to its parent.
// Reported self times have these taken back out.
func spanCost() (inside, outside float64) {
	const n = 200_000
	tr := newTracer(false)
	root, leaf := tr.name("root"), tr.name("leaf")
	tr.begin(root, -1)
	for i := 0; i < n; i++ {
		tr.begin(leaf, -1)
		tr.end()
	}
	tr.end()
	return float64(tr.get(leaf).total) / n, float64(tr.get(root).self) / n
}
