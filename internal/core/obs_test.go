package core

// Observability determinism tests: the flight recorder only records
// facts that are deterministic under the netsim cluster protocol
// (virtual time, canonical replay order), so a sequential Run and a
// worker-pool RunConcurrent of the same seed must dump byte-identical
// flight recordings — the recorder is usable as an equivalence oracle,
// not just a debugging aid.

import (
	"bytes"
	"fmt"
	"testing"

	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/obs"
	"ensemble/internal/opt"
	"ensemble/internal/stack"
)

// obsRun drives the randomized MACH mixed workload (casts plus a ring
// of pt2pt sends, so the lossy link exercises the ack and
// retransmission dispatch paths too) with full observability on and
// returns the flight dump and a metrics snapshot.
func obsRun(t *testing.T, members, workers int, seed int64) ([]byte, obs.Snapshot) {
	t.Helper()
	build := func(rank int) Handlers { return Handlers{} }
	g, err := NewOptimizedClusterGroup(members, netsim.Lossy(0.15), seed, layers.Stack10(), stack.Func, build)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(members, 4096)
	g.EnableObs(reg, rec)
	const msgs = 12
	for i := 0; i < msgs; i++ {
		i := i
		for r := range g.Members {
			r, m := r, g.Members[r]
			g.Do(r, int64(i)*2e6, func() {
				m.Cast([]byte(fmt.Sprintf("m%d-%d", r, i)))
				_ = m.Send((r+1)%members, []byte(fmt.Sprintf("p%d-%d", r, i)))
			})
		}
	}
	if workers > 1 {
		g.RunConcurrent(int64(30e9), workers)
	} else {
		g.Run(int64(30e9))
	}
	return rec.DumpBytes(), reg.Snapshot()
}

// TestFlightDumpSeqConcIdentical: same seed ⇒ byte-identical flight
// dumps from Run and RunConcurrent. This is the recorder's core
// determinism contract and the reason flush records are emitted only
// when the batch is non-empty (the concurrent drain skips members with
// empty mailboxes).
func TestFlightDumpSeqConcIdentical(t *testing.T) {
	const members = 5
	seqDump, _ := obsRun(t, members, 1, 71)
	concDump, _ := obsRun(t, members, members, 71)
	if !bytes.Equal(seqDump, concDump) {
		t.Fatalf("flight dumps diverge: seq %d bytes, conc %d bytes", len(seqDump), len(concDump))
	}
	tracks, err := obs.ParseDump(seqDump)
	if err != nil {
		t.Fatal(err)
	}
	if len(tracks) != members {
		t.Fatalf("dump has %d tracks, want %d", len(tracks), members)
	}
	for r := 0; r < members; r++ {
		if len(tracks[r]) == 0 {
			t.Fatalf("member %d recorded nothing", r)
		}
	}
	// A different seed must actually change the recording — otherwise
	// the equality above proves nothing.
	otherDump, _ := obsRun(t, members, 1, 72)
	if bytes.Equal(seqDump, otherDump) {
		t.Fatal("different seeds produced identical flight dumps")
	}
}

// TestObsMetricsVisible: the unified registry exposes the MACH bypass
// accounting (CCP hit vs fall-through), the per-cause flush counters,
// the shared network counters, and the pool counters, all in one
// ordered snapshot.
func TestObsMetricsVisible(t *testing.T) {
	_, snap := obsRun(t, 4, 1, 7)

	hit, ok := snap.Get("member0/mach/ccp_hit")
	if !ok {
		t.Fatal("member0/mach/ccp_hit missing from snapshot")
	}
	miss, ok := snap.Get("member0/mach/ccp_miss")
	if !ok {
		t.Fatal("member0/mach/ccp_miss missing from snapshot")
	}
	if hit == 0 {
		t.Fatalf("MACH stack routed no packets through the CCP bypass (hit=%d miss=%d)", hit, miss)
	}
	// The obs counters must agree with the engine's own books: hits are
	// bypass+partial routes, misses are full routes.
	var engHit, engMiss int64
	for _, name := range []string{"dn_bypass", "dn_partial", "up_bypass"} {
		v, _ := snap.Get("member0/mach/" + name)
		engHit += v
	}
	for _, name := range []string{"dn_full", "up_full"} {
		v, _ := snap.Get("member0/mach/" + name)
		engMiss += v
	}
	// Engine counters reset at view installs; the obs counters span the
	// member's life, so they can only be >= the current engine's.
	if hit < engHit || miss < engMiss {
		t.Fatalf("obs bypass counters behind the engine's: hit=%d (eng %d) miss=%d (eng %d)", hit, engHit, miss, engMiss)
	}

	// Per-path dispatch accounting: every path name is registered twice
	// (lifetime total and the current view's window), and with a single
	// view the two must agree.
	for p := opt.PathID(0); p < opt.NumPaths; p++ {
		name := "member0/mach/path/" + p.String()
		total, ok := snap.Get(name)
		if !ok {
			t.Fatalf("%s missing from snapshot", name)
		}
		window, ok := snap.Get(name + "/window")
		if !ok {
			t.Fatalf("%s/window missing from snapshot", name)
		}
		if total != window {
			t.Fatalf("%s: total %d != window %d with a single view", name, total, window)
		}
	}
	// The mixed workload's ring sends force explicit acknowledgments and
	// (over the lossy link) retransmissions through the control paths.
	if v, _ := snap.Get("member0/mach/path/up_ack"); v == 0 {
		t.Fatal("no acknowledgments consumed on the compressed ack path")
	}
	if v, _ := snap.Get("member0/mach/ctrl_compressed"); v == 0 {
		t.Fatal("no control sends emitted compressed")
	}

	for _, name := range []string{
		"member0/mach/ccp_hit/window", "member0/mach/ccp_miss/window",
		"member0/batch/flush_size", "member0/batch/flush_entry_end", "member0/batch/flush_barrier",
		"netsim/sent", "netsim/delivered", "pool/event_gets", "pool/event_puts",
	} {
		if _, ok := snap.Get(name); !ok {
			t.Fatalf("%s missing from snapshot", name)
		}
	}
	if sent, _ := snap.Get("netsim/sent"); sent == 0 {
		t.Fatal("netsim/sent is zero after a run")
	}
	if gets, _ := snap.Get("pool/event_gets"); gets == 0 {
		t.Fatal("pool/event_gets is zero after a run")
	}
}
