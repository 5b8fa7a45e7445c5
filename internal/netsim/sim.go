// Package netsim provides the network substrates under the protocol
// stacks. The simulated one is Cluster: a deterministic discrete-event
// network with configurable latency, loss, reordering, and duplication
// (the abstract LossyNetwork of Fig. 2(b) made executable), scheduled by
// one or more shards, to which each member attaches through an Endpoint;
// Profile has the latency models for the links the paper reports against
// (100 Mbit Ethernet, VIA). UDPNet is the real UDP transport for running
// members in separate processes.
package netsim

// Sim is a Cluster's virtual clock, in nanoseconds, plus the heap of
// instrumentation callbacks scheduled against it (Cluster.AtVirtual).
// Packets and member timers are not here: they live on the shard heaps.
type Sim struct {
	now int64
	seq int64
	pq  eventHeap
}

// Now returns the current virtual time in nanoseconds.
func (s *Sim) Now() int64 { return s.now }

// at schedules fn at virtual time t (clamped to now for past times);
// ties run in insertion order.
func (s *Sim) at(t int64, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.pq.push(shardEvent{t: t, seq: s.seq, fn: fn})
}
