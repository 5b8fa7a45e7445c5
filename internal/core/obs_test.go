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
	"slices"
	"strings"
	"testing"

	"ensemble/internal/event"
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
	// bypass routes, misses full routes, and every route is one or the
	// other. Both sets of gauges span the member's life.
	get := func(name string) int64 {
		v, _ := snap.Get("member0/mach/" + name)
		return v
	}
	engHit := get("dn_bypass") + get("up_bypass")
	engMiss := get("dn_full") + get("up_full")
	if hit != engHit || miss != engMiss {
		t.Fatalf("obs bypass counters disagree with the engine's: hit=%d (eng %d) miss=%d (eng %d)", hit, engHit, miss, engMiss)
	}
	// Every route is also one path's hit: a compiled path's, or the
	// interpreted stack's.
	var routed int64
	for _, p := range []opt.PathID{opt.PathDnCast, opt.PathDnSend, opt.PathUpCast, opt.PathUpSend,
		opt.PathUpAck, opt.PathUpRetrans, opt.PathUpOrder, opt.PathFullStack} {
		routed += get("path/" + p.String())
	}
	if hit+miss != routed {
		t.Fatalf("hit %d + miss %d = %d, but the paths routed %d", hit, miss, hit+miss, routed)
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

// TestHandoffIsNotAHit: on the flagship workload's shape — eight MACH
// members on the 10-layer stack, 64 B all-cast rounds every 200 µs over
// simulated Ethernet — every routing decision counts once, as a hit
// (compiled code carried it to the end) or a miss (the interpreted stack
// took it whole), and compressed arrivals that miss stay under 5 % of
// arrivals: casts that arrive before their order are parked and
// released by compiled code, not handed to total.
func TestHandoffIsNotAHit(t *testing.T) {
	const members, rounds = 8, 300
	g, err := NewOptimizedClusterGroup(members, netsim.Ethernet100(), 1, layers.Stack10(), stack.Func, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Cluster.EnableAdaptiveQuantum(400_000, 100_000_000)
	reg := obs.NewRegistry()
	g.EnableObs(reg, nil)
	for i := 0; i < rounds; i++ {
		for r := 0; r < members; r++ {
			buf := make([]byte, 64)
			buf[0], buf[1] = byte(i), byte(r)
			g.Do(r, int64(i)*200_000, func() { g.Members[r].Cast(buf) })
		}
	}
	g.Run(int64(rounds)*200_000 + int64(1e9))
	snap := reg.Snapshot()
	var hit, miss, routed, arrivals, uncompressed, delivered int64
	for r, m := range g.Members {
		get := func(name string) int64 {
			v, ok := snap.Get(fmt.Sprintf("member%d/mach/%s", r, name))
			if !ok {
				t.Fatalf("member%d/mach/%s missing from snapshot", r, name)
			}
			return v
		}
		hit += get("ccp_hit")
		miss += get("ccp_miss")
		st := m.Engine().Stats()
		routed += st.DnBypass + st.DnPartial + st.DnFull + st.UpBypass + st.UpFull
		arrivals += st.UpBypass + st.UpFull
		uncompressed += st.Uncompressed
		delivered += m.Stats().CastsDelivered
	}
	t.Logf("hit %d miss %d of %d routed; %d arrivals, %d of them expanded", hit, miss, routed, arrivals, uncompressed)
	if want := int64(members * members * rounds); delivered != want {
		t.Fatalf("%d deliveries, want %d", delivered, want)
	}
	if hit+miss != routed {
		t.Fatalf("hit %d + miss %d = %d, but the engines routed %d", hit, miss, hit+miss, routed)
	}
	if share := float64(uncompressed) / float64(arrivals); share >= 0.05 {
		t.Fatalf("%d expanded arrivals in %d (%.3f), want under 5 %%", uncompressed, arrivals, share)
	}
}

// TestBatchMetricsMatchBatcherStats: every batch/* name in a member's
// metrics snapshot reads its batcher's counter. A plain vsync group's
// data casts differ from their predecessors in mnak's seqno and their
// payloads, so they ride as run subs, which prefix_subs counts too.
func TestBatchMetricsMatchBatcherStats(t *testing.T) {
	const members = 4
	g, err := NewClusterGroup(members, netsim.Ethernet100(), 3, layers.StackVsync(), stack.Func, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g.EnableObs(reg, nil)
	for i := 0; i < 20; i++ {
		for r := range g.Members {
			r, payload := r, []byte(fmt.Sprintf("cast %d of member %d, fresh bytes %x", i, r, i*members+r))
			g.Do(r, int64(i)*200_000, func() { g.Members[r].Cast(payload) })
		}
	}
	g.Run(int64(200e6))
	snap := reg.Snapshot()
	for r, m := range g.Members {
		st := m.Batcher().Stats()
		want := map[string]int64{
			"sub_packets":     st.SubPackets,
			"frames":          st.Frames,
			"frame_bytes":     st.FrameBytes,
			"flushes":         st.Flushes,
			"flush_size":      st.SizeFlushes,
			"flush_entry_end": st.EntryEndFlushes,
			"flush_barrier":   st.BarrierFlushes,
			"prefix_subs":     st.PrefixSubs,
			"run_subs":        st.RunSubs,
			"verbatim_subs":   st.VerbatimSubs,
		}
		scope := fmt.Sprintf("member%d/batch/", r)
		read := 0
		for _, metric := range snap {
			name, ok := strings.CutPrefix(metric.Name, scope)
			if !ok {
				continue
			}
			w, known := want[name]
			if !known {
				t.Fatalf("%s has no batcher counter in this test", metric.Name)
			}
			if metric.Value != w {
				t.Fatalf("%s = %d, batcher says %d", metric.Name, metric.Value, w)
			}
			read++
		}
		if read != len(want) {
			t.Fatalf("member %d exports %d batch/* metrics, want %d", r, read, len(want))
		}
		if st.RunSubs == 0 || st.RunSubs > st.PrefixSubs {
			t.Fatalf("member %d: %d run subs of %d prefix subs, want some, counted among them", r, st.RunSubs, st.PrefixSubs)
		}
	}
}

// TestMachGaugesSpanViewChanges: a member rebuilds its engine at every
// view install, and its mach/* gauges still read lifetime totals — the
// earlier engines' counters carried, plus the current one's — while each
// /window twin reads the current view's engine alone. A 4-member vsync
// group casts, rank 3 leaves, and the survivors cast again.
func TestMachGaugesSpanViewChanges(t *testing.T) {
	const members, rounds = 4, 50
	g, err := NewOptimizedClusterGroup(members, netsim.Ethernet100(), 1, layers.StackVsync(), stack.Func, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g.EnableObs(reg, nil)
	castRounds := func(from int64, n int) {
		for i := 0; i < rounds; i++ {
			for r := 0; r < n; r++ {
				g.Do(r, from+int64(i)*200_000, func() { g.Members[r].Cast([]byte{byte(i), byte(r)}) })
			}
		}
	}
	castRounds(0, members)
	g.Run(int64(1e9))
	before := reg.Snapshot()
	g.Do(members-1, 0, func() { g.Members[members-1].Leave() })
	g.Run(int64(30e9))
	if n := g.Members[0].View().N(); n != members-1 {
		t.Fatalf("member 0 is in a view of %d after the leave, want %d", n, members-1)
	}
	castRounds(0, members-1)
	g.Run(int64(1e9))
	after := reg.Snapshot()

	life := g.Members[0].engStats()
	cur := g.Members[0].Engine().Stats()
	read := func(s obs.Snapshot, name string) int64 {
		v, ok := s.Get("member0/mach/" + name)
		if !ok {
			t.Fatalf("member0/mach/%s missing from the snapshot", name)
		}
		return v
	}
	gauges := map[string][2]int64{
		"dn_bypass":    {life.DnBypass, cur.DnBypass},
		"up_bypass":    {life.UpBypass, cur.UpBypass},
		"ccp_hit":      {life.DnBypass + life.UpBypass, cur.DnBypass + cur.UpBypass},
		"ccp_miss":     {life.DnFull + life.UpFull, cur.DnFull + cur.UpFull},
		"path/dn_cast": {life.PathHits[opt.PathDnCast], cur.PathHits[opt.PathDnCast]},
		"path/up_cast": {life.PathHits[opt.PathUpCast], cur.PathHits[opt.PathUpCast]},
	}
	for name, want := range gauges {
		was, now := read(before, name), read(after, name)
		t.Logf("%s: %d before the leave, %d after (engine %d)", name, was, now, want[1])
		if now < was || now != want[0] {
			t.Errorf("mach/%s reads %d after the view change, %d before it; want the lifetime %d", name, now, was, want[0])
		}
	}
	// The current view's casts are counted on their own too.
	for _, name := range []string{"ccp_hit", "ccp_miss", "path/dn_cast", "path/up_cast"} {
		if got := read(after, name+"/window"); got != gauges[name][1] {
			t.Errorf("mach/%s/window reads %d, the current engine %d", name, got, gauges[name][1])
		}
	}
	if w, l := read(after, "path/dn_cast/window"), read(after, "path/dn_cast"); w != rounds || l != 2*rounds {
		t.Errorf("mach/path/dn_cast reads %d in this view and %d in all, want %d and %d", w, l, rounds, 2*rounds)
	}
}

// TestRetentionVisible: a member exports what its layers retain as
// retain/msgs and retain/bytes. In a 16-member group on the scale stack
// (StackVsync without total, as bench.ScaleStack) both read above 0 while
// casts flow and lower once a stability sweep has released them, and
// reading them allocates nothing.
func TestRetentionVisible(t *testing.T) {
	const members, rounds = 16, 100
	names := slices.DeleteFunc(layers.StackVsync(), func(n string) bool { return n == layers.Total })
	g, err := NewClusterGroup(members, netsim.Ethernet100(), 1, names, stack.Func, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g.EnableObs(reg, nil)
	for i := 0; i < rounds; i++ {
		for r := range g.Members {
			payload := []byte(fmt.Sprintf("cast %d of member %d, padded to 64 bytes: %032x", i, r, i*members+r))
			g.Do(r, int64(i)*200_000, func() { g.Members[r].Cast(payload) })
		}
	}
	read := func(snap obs.Snapshot, r int) (msgs, bytes int64) {
		msgs, ok := snap.Get(fmt.Sprintf("member%d/retain/msgs", r))
		bytes, ok2 := snap.Get(fmt.Sprintf("member%d/retain/bytes", r))
		if !ok || !ok2 {
			t.Fatalf("member%d/retain/* missing from the snapshot", r)
		}
		return msgs, bytes
	}
	g.Run(int64(rounds)*200_000 + 2e6)
	mid := reg.Snapshot()
	g.Run(int64(300e6))
	after := reg.Snapshot()
	for r := range g.Members {
		m1, b1 := read(mid, r)
		m2, b2 := read(after, r)
		if r == 0 {
			t.Logf("member 0 retains %d msgs in %d B mid-traffic, %d msgs in %d B after stability", m1, b1, m2, b2)
		}
		if m1 <= 0 || b1 <= 0 || m2 >= m1 || b2 >= b1 {
			t.Fatalf("member %d retains %d msgs in %d B mid-traffic and %d msgs in %d B after a stability sweep", r, m1, b1, m2, b2)
		}
	}
	if !event.PoolDebugEnabled() {
		if n := testing.AllocsPerRun(100, func() { g.Members[0].retained() }); n != 0 {
			t.Fatalf("reading retention allocates %v times", n)
		}
	}
}
