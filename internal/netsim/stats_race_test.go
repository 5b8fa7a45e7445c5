package netsim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ensemble/internal/event"
)

// TestStatsSnapshotMidRunInvariant reads the network counters from a
// foreign goroutine *while* a lossy, duplicating concurrent cluster run
// is in flight — the access pattern every bench harness has, which the
// plain-int64 Stats of earlier PRs made a data race. Under -race this
// pins the atomics; under any build it pins the mid-run invariant
//
//	Delivered + Dropped <= Sent + Duplicated
//
// (outcomes never outrun attempts; Snapshot's read order guarantees it
// per cut), and the drained equality Sent+Dup == Delivered+Dropped at
// the end.
func TestStatsSnapshotMidRunInvariant(t *testing.T) {
	c := clusterEcho(7, Lossy(0.2), 6, 5)

	var violations atomic.Int64
	var firstBad atomic.Value
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := c.Net().Stats()
			if s.Delivered+s.Dropped > s.Sent+s.Duplicated {
				if violations.Add(1) == 1 {
					firstBad.Store(fmt.Sprintf("%+v", s))
				}
			}
			runtime.Gosched()
		}
	}()

	c.RunConcurrent(int64(5e9), 6)
	close(stop)
	wg.Wait()

	if n := violations.Load(); n > 0 {
		t.Fatalf("mid-run invariant violated %d time(s); first bad snapshot: %s", n, firstBad.Load())
	}
	final := c.Net().Stats()
	if final.Sent+final.Duplicated != final.Delivered+final.Dropped {
		t.Fatalf("drained books don't balance: %+v", final)
	}
	if final.Sent == 0 || final.Delivered == 0 {
		t.Fatalf("workload never ran: %+v", final)
	}
}

// TestUDPStatsConcurrentSnapshot reads UDPStats from a foreign
// goroutine while two goroutines hammer the socket — the same latent
// race, on the real-socket path.
func TestUDPStatsConcurrentSnapshot(t *testing.T) {
	a, err := NewUDPNet(1, "127.0.0.1:0", map[event.Addr]string{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDPNet(2, "127.0.0.1:0", map[event.Addr]string{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	peers := map[event.Addr]string{1: a.LocalAddr(), 2: b.LocalAddr()}
	a.Close()
	b.Close()
	if a, err = NewUDPNet(1, peers[1], peers); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if b, err = NewUDPNet(2, peers[2], peers); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const perSender = 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := a.Snapshot()
			if s.BytesOnWire < s.Datagrams { // every datagram here carries >= 1 byte
				t.Errorf("snapshot inconsistent: %+v", s)
				return
			}
			runtime.Gosched()
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				a.Send(1, 2, []byte("ping"))
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Snapshot().Datagrams+a.Snapshot().SendErrors < 2*perSender && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := a.Snapshot().Datagrams + a.Snapshot().SendErrors; got != 2*perSender {
		t.Fatalf("accounted %d datagrams, want %d", got, 2*perSender)
	}
}
