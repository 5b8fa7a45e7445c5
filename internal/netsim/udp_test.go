package netsim

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"ensemble/internal/event"
	"ensemble/internal/transport"
)

// TestUDPLoopback exchanges packets between two real UDP endpoints on
// localhost.
func TestUDPLoopback(t *testing.T) {
	// Bind to ephemeral ports first, then cross-register.
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
	// Rebuild with known addresses.
	peers := map[event.Addr]string{1: a.LocalAddr(), 2: b.LocalAddr()}
	a.Close()
	b.Close()
	a, err = NewUDPNet(1, peers[1], peers)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err = NewUDPNet(2, peers[2], peers)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var mu sync.Mutex
	var gotA, gotB []string
	a.Attach(1, func(p Packet) {
		mu.Lock()
		gotA = append(gotA, fmt.Sprintf("from%d:%s", p.From, p.Data))
		mu.Unlock()
	})
	b.Attach(2, func(p Packet) {
		mu.Lock()
		gotB = append(gotB, fmt.Sprintf("from%d:%s", p.From, p.Data))
		mu.Unlock()
	})
	go a.Run()
	go b.Run()

	a.Send(1, 2, []byte("hello"))
	b.Send(2, 1, []byte("reply"))
	a.Cast(1, []byte("toall"))

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		done := len(gotA) >= 1 && len(gotB) >= 2
		mu.Unlock()
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(gotA) < 1 || len(gotB) < 2 {
		t.Fatalf("gotA=%v gotB=%v", gotA, gotB)
	}
}

// TestUDPClockSerialization: After callbacks run on the Run goroutine.
func TestUDPClockSerialization(t *testing.T) {
	u, err := NewUDPNet(1, "127.0.0.1:0", map[event.Addr]string{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var order []int
	u.After(int64(5*time.Millisecond), func() { order = append(order, 1) })
	u.After(int64(10*time.Millisecond), func() {
		order = append(order, 2)
		close(done)
		u.Close()
	})
	go u.Run()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("timers never fired")
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

// TestUDPCloseStopsTimers: timers outstanding at Close are stopped and
// never fire into the closed endpoint, and After on a closed endpoint
// is a no-op.
func TestUDPCloseStopsTimers(t *testing.T) {
	u, err := NewUDPNet(1, "127.0.0.1:0", map[event.Addr]string{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	fired := 0
	for i := 0; i < 8; i++ {
		u.After(int64(20*time.Millisecond), func() {
			mu.Lock()
			fired++
			mu.Unlock()
		})
	}
	u.mu.Lock()
	outstanding := len(u.timers)
	u.mu.Unlock()
	if outstanding != 8 {
		t.Fatalf("tracked %d timers, want 8", outstanding)
	}
	u.Close()
	u.mu.Lock()
	remaining := len(u.timers)
	u.mu.Unlock()
	if remaining != 0 {
		t.Fatalf("%d timers still tracked after Close", remaining)
	}
	u.After(int64(time.Millisecond), func() {
		mu.Lock()
		fired++
		mu.Unlock()
	})
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if fired != 0 {
		t.Fatalf("%d timers fired after Close", fired)
	}
}

// udpPair binds two cross-registered endpoints on loopback.
func udpPair(t *testing.T) (*UDPNet, *UDPNet) {
	t.Helper()
	a, err := NewUDPNet(1, "127.0.0.1:0", map[event.Addr]string{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewUDPNet(2, "127.0.0.1:0", map[event.Addr]string{})
	if err != nil {
		t.Fatal(err)
	}
	peers := map[event.Addr]string{1: a.LocalAddr(), 2: b.LocalAddr()}
	a.Close()
	b.Close()
	a, err = NewUDPNet(1, peers[1], peers)
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewUDPNet(2, peers[2], peers)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestUDPBurstFlushCoalesces: wires batched during one Run-goroutine
// entry leave as one datagram, and the receiver's walker fans the frame
// back out into the original wires.
func TestUDPBurstFlushCoalesces(t *testing.T) {
	a, b := udpPair(t)
	defer a.Close()
	defer b.Close()

	// Stand in for a member: a batcher flushed by the burst-end hook.
	batch := transport.NewBatcher(a, 1, 0)
	batch.EnableCrossFrame(transport.EpochPrefixUvarints)
	a.SetDrainFlush(func() { batch.Flush() })

	var mu sync.Mutex
	var got [][]byte
	b.Attach(2, func(p Packet) {
		mu.Lock()
		got = append(got, append([]byte(nil), p.Data...))
		mu.Unlock()
	})
	go a.Run()
	go b.Run()

	wires := make([][]byte, 5)
	for i := range wires {
		w := binary.AppendUvarint(nil, 4) // epoch seq
		w = binary.AppendUvarint(w, 2)    // view tag
		w = append(w, transport.WireCompressed, 7, 0)
		w = binary.AppendUvarint(w, 1)       // sender
		w = binary.AppendVarint(w, int64(i)) // seqno
		wires[i] = append(w, byte('a'+i))
	}
	a.Do(func() {
		if a.InDrain() != true {
			t.Error("InDrain false inside a burst entry")
		}
		for _, w := range wires {
			batch.Send(2, w)
		}
		if st := a.Stats(); st.Datagrams != 0 {
			t.Errorf("wires left before the burst ended: %+v", st)
		}
	})

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= len(wires) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(wires) {
		t.Fatalf("receiver saw %d wires, want %d", len(got), len(wires))
	}
	for i := range wires {
		if string(got[i]) != string(wires[i]) {
			t.Fatalf("wire %d mangled: % x want % x", i, got[i], wires[i])
		}
	}
	st := a.Stats()
	if st.Datagrams != 1 {
		t.Fatalf("burst left as %d datagrams, want 1 coalesced frame", st.Datagrams)
	}
	// The batcher belongs to the Run goroutine; read its stats there.
	statsCh := make(chan transport.BatcherStats, 1)
	a.Do(func() { statsCh <- batch.Stats() })
	if bs := <-statsCh; bs.DeltaSubs != int64(len(wires))-1 {
		t.Fatalf("DeltaSubs = %d, want %d", bs.DeltaSubs, len(wires)-1)
	}
	if st.BytesOnWire == 0 || st.SendErrors != 0 || st.DroppedOnClose != 0 {
		t.Fatalf("socket accounting off: %+v", st)
	}
}

// TestUDPCloseDropsPendingBatch: Close landing mid-burst, with wires
// still batched, neither panics nor leaks them silently — the burst-end
// flush hits the closed socket and every pending sub-packet's datagram
// is counted in DroppedOnClose. Deterministic: one pending peer frame,
// one drop.
func TestUDPCloseDropsPendingBatch(t *testing.T) {
	a, b := udpPair(t)
	defer b.Close()

	batch := transport.NewBatcher(a, 1, 0)
	batch.EnableCrossFrame(transport.EpochPrefixUvarints)
	a.SetDrainFlush(func() { batch.Flush() })

	done := make(chan error, 1)
	go func() { done <- a.Run() }()
	a.Do(func() {
		batch.Send(2, []byte("pending wire"))
		a.Close() // socket gone before the burst-end flush
	})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Run did not exit after Close")
	}
	st := a.Stats()
	if st.DroppedOnClose != 1 {
		t.Fatalf("DroppedOnClose = %d, want 1", st.DroppedOnClose)
	}
	if st.Datagrams != 0 || st.SendErrors != 0 {
		t.Fatalf("unexpected socket accounting: %+v", st)
	}
	if batch.Pending() != 0 {
		t.Fatalf("%d frames still pending after the close flush", batch.Pending())
	}
}
