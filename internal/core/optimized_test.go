package core

import (
	"fmt"
	"reflect"
	"testing"

	"ensemble/internal/layer"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/opt"
	"ensemble/internal/stack"
)

// Tests for optimized members inside the group runtime: the generated
// bypass (MACH) carrying group traffic end to end, falling back to the
// stack for everything the CCPs exclude, and being recompiled at every
// view change.

// runBothGroups drives identical workloads through a plain and an
// optimized group and returns the per-member delivery logs of each.
func runBothGroups(t *testing.T, n int, profile netsim.Profile, names []string, body func(g *ClusterGroup)) (plain, mach [][]string) {
	t.Helper()
	mk := func(optimized bool) [][]string {
		logs := make([][]string, n)
		g, err := newClusterGroup(n, profile, 77, names, stack.Func, func(rank int) Handlers {
			return Handlers{
				OnCast: func(origin int, payload []byte) {
					logs[rank] = append(logs[rank], fmt.Sprintf("c%d:%s", origin, payload))
				},
				OnSend: func(origin int, payload []byte) {
					logs[rank] = append(logs[rank], fmt.Sprintf("s%d:%s", origin, payload))
				},
			}
		}, optimized)
		if err != nil {
			t.Fatal(err)
		}
		body(g)
		g.Run(int64(30e9))
		return logs
	}
	return mk(false), mk(true)
}

func TestOptimizedGroupMatchesPlainGroup(t *testing.T) {
	for _, tc := range []struct {
		name    string
		names   []string
		profile netsim.Profile
	}{
		{"stack10/perfect", layers.Stack10(), netsim.Profile{Latency: 1000}},
		{"stack10/lossy", layers.Stack10(), netsim.Lossy(0.15)},
		{"stack4/perfect", layers.Stack4(), netsim.Profile{Latency: 1000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := func(g *ClusterGroup) {
				for i := 0; i < 40; i++ {
					i := i
					for r, m := range g.Members {
						r, m := r, m
						g.Do(r, int64(i)*3e6, func() {
							m.Cast([]byte(fmt.Sprintf("m%d-%d", r, i)))
							if i%5 == 0 {
								_ = m.Send((r+1)%len(g.Members), []byte(fmt.Sprintf("p%d-%d", r, i)))
							}
						})
					}
				}
			}
			plain, mach := runBothGroups(t, 3, tc.profile, tc.names, body)
			// The deterministic simulator and identical seeds make the
			// two systems' delivery logs comparable member by member.
			// (Plain and optimized traffic differ at the byte level, so
			// loss patterns can differ; compare delivered *sets* per
			// member under loss, exact sequences on the perfect net.)
			for r := range plain {
				if tc.profile.LossProb == 0 {
					if !reflect.DeepEqual(plain[r], mach[r]) {
						t.Fatalf("member %d logs diverge:\nplain: %v\n mach: %v", r, plain[r], mach[r])
					}
					continue
				}
				ps, ms := map[string]bool{}, map[string]bool{}
				for _, x := range plain[r] {
					ps[x] = true
				}
				for _, x := range mach[r] {
					ms[x] = true
				}
				if !reflect.DeepEqual(ps, ms) {
					t.Fatalf("member %d delivered sets diverge (plain %d vs mach %d entries)",
						r, len(ps), len(ms))
				}
			}
		})
	}
}

func TestOptimizedGroupUsesBypass(t *testing.T) {
	g, err := NewOptimizedClusterGroup(2, netsim.Profile{Latency: 1000}, 3, layers.Stack10(), stack.Func, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		g.Members[0].Cast([]byte("x"))
	}
	g.Run(int64(5e9))
	st0 := g.Members[0].Engine().Stats()
	st1 := g.Members[1].Engine().Stats()
	if st0.DnBypass < 150 {
		t.Fatalf("sender bypass barely used: %+v", st0)
	}
	if st1.UpBypass < 150 {
		t.Fatalf("receiver bypass barely used: %+v", st1)
	}
}

func TestOptimizedGroupSurvivesViewChange(t *testing.T) {
	// The bypass must be re-derived for each view: crash a member of an
	// optimized vsync group and check the survivors keep delivering
	// through their (rebuilt) engines.
	var delivered [3]int
	g, err := NewOptimizedClusterGroup(3, netsim.Profile{Latency: 1000}, 21, layers.StackVsync(), stack.Func,
		func(rank int) Handlers {
			return Handlers{OnCast: func(origin int, payload []byte) { delivered[rank]++ }}
		})
	if err != nil {
		t.Fatal(err)
	}
	engBefore := g.Members[0].Engine()
	g.Members[0].Cast([]byte("before"))
	g.Run(int64(1e9))
	// Crash member 2 (partition-style: detach, stop participating).
	g.Members[2].exited = true
	g.Cluster.Net().Detach(g.Members[2].addr)
	g.Run(int64(30e9))
	if g.Members[0].View().N() != 2 {
		t.Fatalf("view change did not happen: %v", g.Members[0].View())
	}
	pre1 := delivered[1]
	// The non-sequencer's casts correctly take the full path (its own
	// ordering is not a common case); the sequencer's casts must ride
	// the rebuilt bypass.
	for i := 0; i < 50; i++ {
		g.Members[0].Cast([]byte(fmt.Sprintf("after%d", i)))
		g.Members[1].Cast([]byte(fmt.Sprintf("noseq%d", i)))
	}
	g.Run(int64(20e9))
	if delivered[1]-pre1 != 100 {
		t.Fatalf("member 1 delivered %d post-view casts, want 100", delivered[1]-pre1)
	}
	if g.Members[0].Engine() == nil || g.Members[0].Engine() == engBefore {
		t.Fatal("engine was not rebuilt for the new view")
	}
	if st := g.Members[0].Engine().Stats(); st.DnBypass < 50 {
		t.Fatalf("sequencer's rebuilt down bypass unused: %+v", st)
	}
	if st := g.Members[1].Engine().Stats(); st.UpBypass < 50 {
		t.Fatalf("receiver's rebuilt up bypass unused: %+v", st)
	}
}

// TestBypassCarriesTheFlagshipWorkload: eight MACH members on the
// 10-layer stack casting in rounds — the shape of the repository
// benchmark's sim8_small — route at least nine events in ten through
// compiled code from end to end: the sequencer's casts, everyone else's
// casts (parked where they arrive ahead of their order) and the order
// announcements that release them. An arrival whose common case fails
// takes the whole stack, once per miss of its path: 90 of them, the
// announcements that arrive ahead of a gap or close a run at total. The
// simulator is deterministic, so the counts repeat exactly and the bar
// is a count, not a timing: it sat at 0.13 before casts parked and
// order runs released compiled.
func TestBypassCarriesTheFlagshipWorkload(t *testing.T) {
	const members, rounds = 8, 200
	g, err := NewOptimizedClusterGroup(members, netsim.Ethernet100(), 1, layers.Stack10(), stack.Func, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Cluster.EnableAdaptiveQuantum(400_000, 100_000_000)
	for i := 0; i < rounds; i++ {
		for r := 0; r < members; r++ {
			buf := make([]byte, 64)
			buf[0], buf[1] = byte(i), byte(r)
			g.Do(r, int64(i)*200_000, func() { g.Members[r].Cast(buf) })
		}
	}
	g.Run(int64(rounds)*200_000 + int64(1e9))
	var compiled, routed, delivered, uncompressed, upMisses int64
	for _, m := range g.Members {
		st := m.Engine().Stats()
		compiled += st.DnBypass + st.UpBypass
		routed += st.DnBypass + st.DnPartial + st.DnFull + st.UpBypass + st.UpFull
		uncompressed += st.Uncompressed
		for _, pid := range []opt.PathID{opt.PathUpCast, opt.PathUpSend, opt.PathUpAck, opt.PathUpRetrans, opt.PathUpOrder} {
			upMisses += st.PathMisses[pid]
		}
		delivered += m.Stats().CastsDelivered
	}
	if want := int64(members * members * rounds); delivered != want {
		t.Fatalf("%d deliveries, want %d", delivered, want)
	}
	if share := float64(compiled) / float64(routed); share < 0.9 {
		t.Fatalf("compiled code routed %d of %d events (%.3f), want at least 0.9", compiled, routed, share)
	}
	if uncompressed != 90 || uncompressed != upMisses {
		t.Fatalf("%d compressed arrivals were expanded in front of the whole stack (%d up misses), want 90", uncompressed, upMisses)
	}
}

// TestEveryCastIsOneCompiledProbe: on the flagship workload every cast
// is decided by one evaluation of one compiled CCP and runs whole: the
// sequencer's delivers its self-delivery copy inline, every other
// member's parks it at total until its order run releases it. Nothing
// is probed twice, and nothing reaches the interpreter from the top.
func TestEveryCastIsOneCompiledProbe(t *testing.T) {
	const members, rounds = 8, 200
	g, err := NewOptimizedClusterGroup(members, netsim.Ethernet100(), 1, layers.Stack10(), stack.Func, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		for r := 0; r < members; r++ {
			buf := make([]byte, 64)
			buf[0], buf[1] = byte(i), byte(r)
			g.Do(r, int64(i)*200_000, func() { g.Members[r].Cast(buf) })
		}
	}
	g.Run(int64(rounds)*200_000 + int64(1e9))
	var sum opt.EngineStats
	for _, m := range g.Members {
		st := m.Engine().Stats()
		sum.DnBypass += st.DnBypass
		sum.DnFull += st.DnFull
		sum.Parked += st.Parked
		for p := range st.PathMisses {
			sum.PathHits[p] += st.PathHits[p]
			sum.PathMisses[p] += st.PathMisses[p]
		}
	}
	t.Logf("down: bypass %d full %d; hits %v misses %v", sum.DnBypass, sum.DnFull, sum.PathHits, sum.PathMisses)
	if sum.PathMisses[opt.PathDnCast] != 0 {
		t.Errorf("%s missed %d times", opt.PathDnCast, sum.PathMisses[opt.PathDnCast])
	}
	if sum.DnBypass != members*rounds || sum.DnFull != 0 {
		t.Errorf("DnBypass %d, DnFull %d; want %d, 0", sum.DnBypass, sum.DnFull, members*rounds)
	}
	// Parked: each non-sequencer cast's own copy, and its arrival at the
	// other non-sequencers.
	if want := int64((members - 1) * rounds * (members - 1)); sum.Parked != want {
		t.Errorf("%d casts parked, want %d", sum.Parked, want)
	}
}

// TestVsyncCastsCompiledBeforeFirstSweep: suspect's liveness clock
// exists from the start of a view, so a vsync member's casts take the
// compiled path whole from its first one, before the first sweep
// (50 ms) as after it: four members casting 32 B every 200 µs for
// 100 ms route every cast on dn_cast and none through the stack.
func TestVsyncCastsCompiledBeforeFirstSweep(t *testing.T) {
	const members, casts = 4, 500
	g, err := NewOptimizedClusterGroup(members, netsim.Ethernet100(), 1, layers.StackVsync(), stack.Func, nil)
	if err != nil {
		t.Fatal(err)
	}
	sweep := layer.DefaultConfig(g.Members[0].View()).SweepInterval
	for i := 0; i < casts; i++ {
		for r := 0; r < members; r++ {
			buf := make([]byte, 32)
			buf[0], buf[1] = byte(i), byte(r)
			g.Do(r, int64(i)*200_000, func() { g.Members[r].Cast(buf) })
		}
	}
	// Before the first sweep.
	early := sweep / 200_000
	g.Run(sweep - 1)
	for r, m := range g.Members {
		st := m.Engine().Stats()
		if st.DnBypass < early || st.DnFull != 0 || st.PathHits[opt.PathDnCast] != st.DnBypass {
			t.Errorf("member %d before the first sweep: %d casts on %s of %d routed down, %d through the stack; want at least %d, all compiled",
				r, st.PathHits[opt.PathDnCast], opt.PathDnCast, st.DnBypass+st.DnFull, st.DnFull, early)
		}
	}
	g.Run(int64(casts)*200_000 + int64(1e9))
	for r, m := range g.Members {
		if st := m.Engine().Stats(); st.DnBypass != casts || st.DnFull != 0 || st.PathHits[opt.PathDnCast] != casts {
			t.Errorf("member %d: %d of %d casts routed on %s, %d through the stack", r, st.PathHits[opt.PathDnCast], casts, opt.PathDnCast, st.DnFull)
		}
		if got := m.Stats().CastsDelivered; got != members*casts {
			t.Errorf("member %d delivered %d casts, want %d", r, got, members*casts)
		}
		if v := m.View(); v.N() != members {
			t.Fatalf("member %d is in a view of %d", r, v.N())
		}
	}
}
