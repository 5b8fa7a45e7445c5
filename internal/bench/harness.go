// Package bench regenerates the paper's evaluation (§4.2): the code
// latency tables (Table 1a/1b), the message-size sweep (Fig. 6), the
// performance-counter comparison (Table 2a), the code-size comparison
// (Table 2b), the end-to-end improvement arithmetic, and the CCP check
// cost. The harness wires a sender and a receiver back to back (the
// paper's two UltraSparcs) and accumulates per-segment times over many
// rounds — Down Stack, Down Transport, Up Transport, Up Stack — exactly
// the rows Table 1 reports.
package bench

import (
	"fmt"
	"time"

	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/layers"
	"ensemble/internal/opt"
	"ensemble/internal/stack"
)

// Config selects one of the four versions of §4.2.
type Config int

const (
	// IMP is the imperative version: central event scheduler.
	IMP Config = iota
	// FUNC is the functional version: recursive composition.
	FUNC
	// MACH is the machine-optimized version: generated bypass.
	MACH
	// HAND is the hand-optimized version (4-layer stack only).
	HAND
)

// String names the configuration as the paper does.
func (c Config) String() string { return [...]string{"IMP", "FUNC", "MACH", "HAND"}[c] }

// Segments are per-message code latencies in nanoseconds, averaged over
// the measured rounds — the four rows of Table 1.
type Segments struct {
	DownStack     float64
	DownTransport float64
	UpTransport   float64
	UpStack       float64
	// Rounds is how many rounds contributed samples.
	Rounds int
}

// Total sums the four segments.
func (s Segments) Total() float64 {
	return s.DownStack + s.DownTransport + s.UpTransport + s.UpStack
}

// Micros renders a nanosecond figure in microseconds.
func Micros(ns float64) string { return fmt.Sprintf("%.2f", ns/1000) }

func benchView(n, rank int) *event.View {
	addrs := make([]event.Addr, n)
	for i := range addrs {
		addrs[i] = event.Addr(i + 1)
	}
	return event.NewView("bench", 1, addrs, rank)
}

// endpoint is one member of the two-member pair: an opt.Engine, plain
// (IMP, FUNC) or with its bypasses (MACH), or the hand engine (HAND).
type endpoint interface {
	Cast(payload []byte)
	Packet(data []byte) bool
	Timer(now int64)
}

// pair is the two members every in-process harness drives — a rank-0
// sender and a rank-1 receiver back to back (the paper's two
// UltraSparcs) — built for one configuration. Every wire a member emits
// goes to out; what reaches a member goes in through packet.
type pair struct {
	ends      [2]endpoint
	delivered int // application deliveries at either member
	out       func(from, to int, wire []byte)
	// dnFull counts the sender's casts the stack took from the top, which
	// code-latency rounds exclude ("the outcome of the CCP checks is
	// always the choice to run the bypass"); always 0 for a plain stack.
	dnFull func() int64
}

// newPair builds the pair for cfg. markDn is the sender's
// MarkDnTransport and markUp the receiver's MarkUpStack (either may be
// nil). Arrivals are borrowed: every harness recycles its wire buffers.
func newPair(cfg Config, names []string, markDn, markUp func()) (*pair, error) {
	p := &pair{dnFull: func() int64 { return 0 }}
	deliver := func(int, []byte, bool) { p.delivered++ }
	for m := range p.ends {
		send := func(cast bool, dst int, wire []byte) {
			to := dst
			if cast {
				to = 1 - m
			}
			p.out(m, to, wire)
		}
		dn, up := markDn, markUp
		if m == 0 {
			up = nil
		} else {
			dn = nil
		}
		lc := layer.DefaultConfig(benchView(2, m))
		if cfg == HAND {
			h, err := layers.NewHandEngine(lc, stack.Func)
			if err != nil {
				return nil, err
			}
			h.SendWire = send
			h.Deliver = deliver
			h.MarkDnTransport = dn
			h.MarkUpStack = up
			if m == 0 {
				p.dnFull = func() int64 { return h.Stats.DnFull }
			}
			p.ends[m] = h
			continue
		}
		var e *opt.Engine
		var err error
		switch cfg {
		case IMP:
			e, err = opt.NewStackEngine(names, lc, stack.Imp)
		case FUNC:
			e, err = opt.NewStackEngine(names, lc, stack.Func)
		case MACH:
			e, err = opt.NewEngine(names, lc, stack.Func)
			if m == 0 && err == nil {
				p.dnFull = func() int64 { return e.Stats().DnFull }
			}
		default:
			return nil, fmt.Errorf("bench: unknown config %d", cfg)
		}
		if err != nil {
			return nil, err
		}
		e.SendWire = send
		e.Deliver = deliver
		e.MarkDnTransport = dn
		e.MarkUpStack = up
		e.ArrivalsBorrowed = true
		p.ends[m] = e
	}
	return p, nil
}

// packet hands a wire to member to. The link between the two members of
// one stack is lossless, so an arrival that does not decode is a bug.
func (p *pair) packet(to int, wire []byte) {
	if !p.ends[to].Packet(wire) {
		panic(fmt.Sprintf("bench: member %d could not decode % x", to, wire))
	}
}

// timers drives both members' housekeeping sweeps, so retransmission
// buffers stay garbage-collected during long runs.
func (p *pair) timers(now int64) {
	p.ends[0].Timer(now)
	p.ends[1].Timer(now)
}

// MeasureCodeLatency runs `rounds` one-way cast rounds of `size`-byte
// messages from a rank-0 sender to a rank-1 receiver under the given
// configuration and stack, and reports the averaged segment latencies.
// The segment boundaries are the engines' marks, the same for every
// configuration: Down Stack ends where the message leaves the stack or
// the bypass (MarkDnTransport), Down Transport where the encoded wire is
// handed on, Up Transport where it has decoded (MarkUpStack). Matching
// the paper's setup, rounds whose cast the stack took from the top are
// excluded from MACH/HAND averages ("the outcome of the CCP checks is
// always the choice to run the bypass"). Everything else a round emits —
// credits, acknowledgments, gossip — waits untimed in the pump.
func MeasureCodeLatency(cfg Config, names []string, size, rounds int) (Segments, error) {
	var tMarkDn, tSend, tMarkUp time.Time
	var timing, marked, sent, upMarked bool
	p, err := newPair(cfg, names,
		func() { tMarkDn, marked = time.Now(), true },
		func() { tMarkUp, upMarked = time.Now(), true })
	if err != nil {
		return Segments{}, err
	}
	pump := &wirePump{deliver: p.packet}
	var wire []byte
	p.out = func(from, to int, w []byte) {
		if timing && marked && !sent {
			tSend, sent = time.Now(), true
			wire = append(wire[:0], w...)
			return
		}
		pump.send(to, w)
	}
	payload := make([]byte, size)
	var seg Segments
	for i := 0; i < rounds; i++ {
		full := p.dnFull()
		marked, sent, upMarked = false, false, false
		timing, pump.active = true, true // hold what the round emits
		t0 := time.Now()
		p.ends[0].Cast(payload)
		timing = false
		if sent {
			t2 := time.Now()
			p.packet(1, wire)
			t3 := time.Now()
			if upMarked && p.dnFull() == full {
				seg.DownStack += float64(tMarkDn.Sub(t0))
				seg.DownTransport += float64(tSend.Sub(tMarkDn))
				seg.UpTransport += float64(tMarkUp.Sub(t2))
				seg.UpStack += float64(t3.Sub(tMarkUp))
				seg.Rounds++
			}
		}
		pump.drain() // the untimed rest of the round
		if i%256 == 255 {
			p.timers(int64(i) * int64(1e6))
		}
	}
	if seg.Rounds < rounds/2 {
		return Segments{}, fmt.Errorf("bench: only %d/%d %s rounds took the bypass", seg.Rounds, rounds, cfg)
	}
	return average(seg), nil
}

func average(s Segments) Segments {
	if s.Rounds == 0 {
		return s
	}
	n := float64(s.Rounds)
	s.DownStack /= n
	s.DownTransport /= n
	s.UpTransport /= n
	s.UpStack /= n
	return s
}

// MeasureCCPCheck times the composed common-case predicate alone — the
// ~3 µs figure of §4.2 (proportionally smaller here).
func MeasureCCPCheck(names []string, rounds int) (time.Duration, error) {
	eng, err := opt.NewEngine(names, layer.DefaultConfig(benchView(2, 0)), stack.Func)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	ok := true
	for i := 0; i < rounds; i++ {
		ok = eng.CheckCCP(true, 0, 4) && ok
	}
	el := time.Since(t0)
	if !ok {
		return 0, fmt.Errorf("bench: CCP unexpectedly false")
	}
	return el / time.Duration(rounds), nil
}
