// Bypass: the paper's optimization pipeline end to end (§4.1). The
// optimizer derives per-layer optimization theorems, composes them into
// stack theorems, derives the compressed wire format from their free
// variables, compiles the bypass, and the run-time CCP check routes each
// event to the bypass or the original stack — while both stay
// semantically identical.
package main

import (
	"fmt"

	"ensemble"
)

func main() {
	names := ensemble.Stack10()
	addrs := []ensemble.Addr{1, 2}

	// One optimized engine per member; rank is a view constant the
	// optimizer specializes against.
	engines := make([]*ensemble.Engine, 2)
	delivered := make([][]string, 2)
	for m := 0; m < 2; m++ {
		m := m
		view := ensemble.NewView("bypass-demo", 1, addrs, m)
		eng, err := ensemble.NewOptimizedEngine(names, ensemble.DefaultLayerConfig(view), ensemble.Func)
		if err != nil {
			panic(err)
		}
		eng.Deliver = func(origin int, payload []byte, cast bool) {
			delivered[m] = append(delivered[m], fmt.Sprintf("%q from %d", payload, origin))
		}
		engines[m] = eng
	}
	// Back-to-back wire.
	for m := 0; m < 2; m++ {
		m := m
		engines[m].SendWire = func(cast bool, dst int, wire []byte) {
			// The wire image is only valid during this callback: snapshot
			// it before delivering (delivery can trigger further sends).
			engines[1-m].Packet(append([]byte(nil), wire...))
		}
	}

	fmt.Println("=== stack optimization theorems (sequencer member) ===")
	for _, th := range engines[0].Theorems() {
		fmt.Printf("%s\n\n", th)
	}

	// Common-case traffic: the bypass carries it.
	for i := 0; i < 1000; i++ {
		engines[0].Cast([]byte(fmt.Sprintf("fast-%d", i)))
	}
	// A jumbo cast misses the frag CCP: the very same engine routes it
	// through the original stack, and the receiver interoperates.
	engines[0].Cast(make([]byte, 64*1024))

	s0, s1 := engines[0].Stats(), engines[1].Stats()
	fmt.Printf("sender:   bypass=%d full-stack=%d\n", s0.DnBypass, s0.DnFull)
	fmt.Printf("receiver: bypass=%d full-stack=%d (compressed arrivals whose common case failed: %d)\n",
		s1.UpBypass, s1.UpFull, s1.Uncompressed)
	fmt.Printf("receiver delivered %d messages (self-deliveries at sender: %d)\n",
		len(delivered[1]), len(delivered[0]))
	if len(delivered[1]) != 1001 {
		panic("missing deliveries")
	}
	fmt.Println("bypass and stack agreed on every message")
}
