package spec

import (
	"fmt"
	"sort"
	"strings"
)

// The concrete behavioural specification of Fig. 3: a protocol that
// retransmits messages, removes duplicates, and delivers in order,
// implementing a FIFO network on top of a lossy one. The participant is
// split into its sender and receiver halves, composed with lossy packet
// channels via Compose (tying the protocol's Below.Send/Below.Deliver to
// the channels' send/deliver, exactly the event-tying construction of
// §3.1). The check package verifies the composition's external traces
// against the abstract FifoNetwork specification by bounded exhaustive
// search — the proof obligation the paper discharges by hand in [11].

// PacketChannel is a lossy channel: a set of packets in transit over a
// bounded universe; delivery leaves the packet in place (duplication),
// the internal drop removes it (loss).
type PacketChannel struct {
	// Tag names the channel's actions: Tag+".send" (input),
	// Tag+".deliver" (output), Tag+".drop" (internal).
	Tag string
	// Universe bounds the packet vocabulary so input acceptance is
	// enumerable; senders only emit packets within it.
	Universe [][]int
}

// Name implements Automaton.
func (c *PacketChannel) Name() string { return "chan-" + c.Tag }

// Signature implements Automaton.
func (c *PacketChannel) Signature() map[string]Kind {
	return map[string]Kind{
		c.Tag + ".send":    Input,
		c.Tag + ".deliver": Output,
		c.Tag + ".drop":    Internal,
	}
}

// Initial implements Automaton.
func (c *PacketChannel) Initial() []State {
	return []State{&chanState{ch: c, transit: map[string][]int{}}}
}

type chanState struct {
	ch      *PacketChannel
	transit map[string][]int
}

func (s *chanState) Key() string {
	keys := make([]string, 0, len(s.transit))
	for k := range s.transit {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return s.ch.Tag + "[" + strings.Join(keys, ";") + "]"
}

func (s *chanState) clone() *chanState {
	cp := &chanState{ch: s.ch, transit: make(map[string][]int, len(s.transit))}
	for k, v := range s.transit {
		cp.transit[k] = v
	}
	return cp
}

// Steps implements State.
func (s *chanState) Steps() []Step {
	var steps []Step
	for _, params := range s.ch.Universe {
		next := s.clone()
		next.transit[IntsKey(params)] = params
		steps = append(steps, Step{Ev: Event{Name: s.ch.Tag + ".send", Params: params}, Next: next})
	}
	for k, params := range s.transit {
		// Deliver without removing: duplication.
		steps = append(steps, Step{Ev: Event{Name: s.ch.Tag + ".deliver", Params: params}, Next: s.clone()})
		next := s.clone()
		delete(next.transit, k)
		steps = append(steps, Step{Ev: Event{Name: s.ch.Tag + ".drop", Params: params}, Next: next})
	}
	return steps
}

// fifoSender is the sending half of FifoProtocol: it numbers accepted
// messages, retransmits unacknowledged ones (the Timer action of Fig. 3,
// modelled as an always-enabled internal retransmission), and discards
// acknowledged buffers.
type fifoSender struct {
	dst, msgs int
}

// NewFifoSender builds the sender half for destination dst with the
// message universe [0,msgs).
func NewFifoSender(dst, msgs int) Automaton { return &fifoSender{dst: dst, msgs: msgs} }

func (f *fifoSender) Name() string { return "FifoSender" }

func (f *fifoSender) Signature() map[string]Kind {
	return map[string]Kind{
		"Send":        Input,  // Above.Send(dst, msg)
		"data.send":   Output, // Below.Send of a (seq,msg) packet
		"ack.deliver": Input,  // Below.Deliver of a cumulative ack
	}
}

func (f *fifoSender) Initial() []State {
	return []State{&fifoSenderState{a: f}}
}

type fifoSenderState struct {
	a       *fifoSender
	nextSeq int
	buf     [][2]int // unacknowledged (seq, msg)
}

func (s *fifoSenderState) Key() string {
	return KeyOf("snd", fmt.Sprintf("%d", s.nextSeq), IntsKey(flattenPairs(s.buf)))
}

func (s *fifoSenderState) clone() *fifoSenderState {
	return &fifoSenderState{a: s.a, nextSeq: s.nextSeq, buf: append([][2]int(nil), s.buf...)}
}

func (s *fifoSenderState) Steps() []Step {
	var steps []Step
	// Above.Send: accept the next message while the bound allows. The
	// message value equals its sequence number in the bounded driver
	// discipline, keeping the universe small without weakening the FIFO
	// obligation.
	if s.nextSeq < s.a.msgs {
		next := s.clone()
		next.buf = append(next.buf, [2]int{s.nextSeq, s.nextSeq})
		next.nextSeq++
		steps = append(steps, Step{Ev: Event{Name: "Send", Params: []int{s.a.dst, s.nextSeq}}, Next: next})
	}
	// Below.Send: (re)transmit any buffered packet — the timer-driven
	// retransmission of Fig. 3.
	for _, p := range s.buf {
		steps = append(steps, Step{Ev: Event{Name: "data.send", Params: []int{p[0], p[1]}}, Next: s.clone()})
	}
	// Ack processing: a cumulative ack a discards buffers below a.
	for a := 0; a <= s.a.msgs; a++ {
		next := s.clone()
		next.buf = next.buf[:0]
		for _, p := range s.buf {
			if p[0] >= a {
				next.buf = append(next.buf, p)
			}
		}
		steps = append(steps, Step{Ev: Event{Name: "ack.deliver", Params: []int{a}}, Next: next})
	}
	return steps
}

// fifoReceiver is the receiving half: it drops duplicates, delivers in
// order, and acknowledges cumulatively.
type fifoReceiver struct {
	dst, msgs int
}

// NewFifoReceiver builds the receiver half.
func NewFifoReceiver(dst, msgs int) Automaton { return &fifoReceiver{dst: dst, msgs: msgs} }

func (f *fifoReceiver) Name() string { return "FifoReceiver" }

func (f *fifoReceiver) Signature() map[string]Kind {
	return map[string]Kind{
		"data.deliver": Input,  // Below.Deliver of a (seq,msg) packet
		"Deliver":      Output, // Above.Deliver(dst, msg)
		"ack.send":     Output, // Below.Send of a cumulative ack
	}
}

func (f *fifoReceiver) Initial() []State {
	return []State{&fifoReceiverState{a: f}}
}

type fifoReceiverState struct {
	a       *fifoReceiver
	expect  int   // next in-order sequence number
	pending []int // received in-order messages not yet handed up
}

func (s *fifoReceiverState) Key() string {
	return KeyOf("rcv", fmt.Sprintf("%d", s.expect), IntsKey(s.pending))
}

func (s *fifoReceiverState) clone() *fifoReceiverState {
	return &fifoReceiverState{a: s.a, expect: s.expect, pending: append([]int(nil), s.pending...)}
}

func (s *fifoReceiverState) Steps() []Step {
	var steps []Step
	// Below.Deliver: in-order packets advance the window; duplicates and
	// out-of-order packets are absorbed (this simple receiver does not
	// buffer ahead — reordering is repaired by retransmission).
	for seq := 0; seq < s.a.msgs; seq++ {
		for m := 0; m < s.a.msgs; m++ {
			next := s.clone()
			if seq == s.expect {
				next.expect++
				next.pending = append(next.pending, m)
			}
			steps = append(steps, Step{Ev: Event{Name: "data.deliver", Params: []int{seq, m}}, Next: next})
		}
	}
	// Above.Deliver drains in order.
	if len(s.pending) > 0 {
		next := s.clone()
		m := next.pending[0]
		next.pending = next.pending[1:]
		steps = append(steps, Step{Ev: Event{Name: "Deliver", Params: []int{s.a.dst, m}}, Next: next})
	}
	// Cumulative acknowledgment of everything contiguously received.
	steps = append(steps, Step{Ev: Event{Name: "ack.send", Params: []int{s.expect}}, Next: s.clone()})
	return steps
}

// FifoProtocolSystem composes the Fig. 3 protocol with lossy channels:
// sender ∘ data-channel ∘ receiver ∘ ack-channel, with the Below.* events
// hidden. Its external signature — Send(dst,msg) in, Deliver(dst,msg)
// out — matches the abstract FifoNetwork, and the check package verifies
// trace inclusion between them.
func FifoProtocolSystem(msgs int) Automaton {
	dataUniverse := make([][]int, 0, msgs*msgs)
	for seq := 0; seq < msgs; seq++ {
		for m := 0; m < msgs; m++ {
			dataUniverse = append(dataUniverse, []int{seq, m})
		}
	}
	ackUniverse := make([][]int, 0, msgs+1)
	for a := 0; a <= msgs; a++ {
		ackUniverse = append(ackUniverse, []int{a})
	}
	return Compose("FifoProtocol∘LossyChannels",
		[]string{"data.send", "data.deliver", "data.drop", "ack.send", "ack.deliver", "ack.drop"},
		NewFifoSender(0, msgs),
		&PacketChannel{Tag: "data", Universe: dataUniverse},
		&PacketChannel{Tag: "ack", Universe: ackUniverse},
		NewFifoReceiver(0, msgs),
	)
}
