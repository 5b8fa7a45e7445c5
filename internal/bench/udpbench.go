package bench

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"ensemble/internal/event"
	"ensemble/internal/netsim"
	"ensemble/internal/transport"
)

// The UDP loopback benchmark puts the batched socket path under real
// syscalls: wires travel from a Batcher through UDPNet's burst-end
// flush, across the kernel's loopback device, and back out of the
// receiver's frame walker. It measures the same three quantities as the
// simulated-network harness — msgs/sec, bytes/msg, subs/frame — so the
// syscall-coalescing claim can be checked against an actual socket
// rather than the simulator's accounting.

// UDPThroughput is one loopback run's result.
type UDPThroughput struct {
	Msgs int
	// Size is the payload bytes carried after each wire's compressed
	// header.
	Size int
	Wall time.Duration
	// MsgsPerSec counts wires that completed the socket round trip per
	// wall-clock second.
	MsgsPerSec float64
	// BytesPerMsg is sender-socket bytes written per wire — the syscall
	// payload the batching and compression layers produce.
	BytesPerMsg float64
	// SubsPerFrame is the observed coalescing factor (wires per
	// datagram).
	SubsPerFrame float64
	// Net is the sender socket's accounting; Batch the sender batcher's
	// (Batch.ClassicBytes is the unbatched-classic yardstick for the
	// same wires).
	Net   netsim.UDPStats
	Batch transport.BatcherStats
}

// MeasureUDPThroughput drives msgs compressed wires (carrying size
// payload bytes each) from one loopback UDP endpoint to another, in
// bursts of `burst` wires per Run-goroutine entry — each burst leaves in
// one datagram, as a member's 0xB9 frame. The run counts once the
// receiver's link has surfaced every wire (byte fidelity is the correctness
// suite's job; this harness measures rate and wire cost).
func MeasureUDPThroughput(msgs, size, burst int) (UDPThroughput, error) {
	if msgs <= 0 || burst <= 0 {
		return UDPThroughput{}, fmt.Errorf("bench: udp throughput needs msgs and burst >= 1")
	}
	if size < 1 {
		size = 1
	}
	// Bind both endpoints on ephemeral ports first, then rebind with the
	// full peer table (addresses are only known after the first bind).
	a, err := netsim.NewUDPNet(1, "127.0.0.1:0", map[event.Addr]string{})
	if err != nil {
		return UDPThroughput{}, err
	}
	b, err := netsim.NewUDPNet(2, "127.0.0.1:0", map[event.Addr]string{})
	if err != nil {
		a.Close()
		return UDPThroughput{}, err
	}
	peers := map[event.Addr]string{1: a.LocalAddr(), 2: b.LocalAddr()}
	a.Close()
	b.Close()
	if a, err = netsim.NewUDPNet(1, peers[1], peers); err != nil {
		return UDPThroughput{}, err
	}
	defer a.Close()
	if b, err = netsim.NewUDPNet(2, peers[2], peers); err != nil {
		return UDPThroughput{}, err
	}
	defer b.Close()

	batch := transport.NewBatcher(a, 1, 0)
	batch.EnableCrossFrame(transport.EpochPrefixUvarints)
	a.SetDrainFlush(func() { batch.Flush() })

	var received atomic.Int64
	done := make(chan struct{})
	b.Attach(2, func(p netsim.Packet) {
		if received.Add(1) == int64(msgs) {
			close(done)
		}
	})
	go a.Run()
	go b.Run()

	// One reusable wire image per burst slot: epoch prefix, compressed
	// header, a seqno that walks the message index, then the payload.
	payload := make([]byte, size)
	wire := func(seq int) []byte {
		w := binary.AppendUvarint(nil, 4) // epoch seq
		w = binary.AppendUvarint(w, 2)    // membership digest
		w = append(w, transport.WireCompressed, 7, 0)
		w = binary.AppendUvarint(w, 1) // sender
		w = binary.AppendVarint(w, int64(seq))
		return append(w, payload...)
	}
	// UDP is lossy even on loopback: an unpaced blast overflows the
	// receive buffer and dropped wires would hang the run. The harness
	// caps wires in flight — crude credit-based flow control, which is
	// also what a deployment above this path would impose. 128 stays
	// well inside the kernel's default receive buffer even with its
	// per-datagram bookkeeping overhead.
	const window = 128
	t0 := time.Now()
	for sent := 0; sent < msgs; {
		n := burst
		if left := msgs - sent; left < n {
			n = left
		}
		base := sent
		a.Do(func() {
			for k := 0; k < n; k++ {
				batch.Send(2, wire(base+k))
			}
		})
		sent += n
		for int(received.Load()) < sent-window {
			time.Sleep(20 * time.Microsecond)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		return UDPThroughput{}, fmt.Errorf("bench: udp loopback delivered %d of %d wires before timeout",
			received.Load(), msgs)
	}
	wall := time.Since(t0)

	res := UDPThroughput{
		Msgs:       msgs,
		Size:       size,
		Wall:       wall,
		MsgsPerSec: float64(msgs) / wall.Seconds(),
		Net:        a.Stats(),
	}
	res.BytesPerMsg = float64(res.Net.BytesOnWire) / float64(msgs)
	// The batcher belongs to the Run goroutine; read its stats there.
	bsCh := make(chan transport.BatcherStats, 1)
	a.Do(func() { bsCh <- batch.Stats() })
	if res.Batch = <-bsCh; res.Batch.Frames > 0 {
		res.SubsPerFrame = float64(res.Batch.SubPackets) / float64(res.Batch.Frames)
	}
	if res.Net.SendErrors != 0 || res.Net.DroppedOnClose != 0 {
		return res, fmt.Errorf("bench: udp socket errors during run: %+v", res.Net)
	}
	return res, nil
}
