package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

// treeGroup builds an n-member cluster group with per-member view
// recording.
func treeGroup(t *testing.T, n int, seed int64) (*ClusterGroup, [][]*event.View) {
	t.Helper()
	views := make([][]*event.View, n)
	g, err := NewClusterGroup(n, netsim.Profile{Latency: 50_000}, seed, layers.StackVsync(), stack.Func,
		func(rank int) Handlers {
			return Handlers{OnView: func(v *event.View) { views[rank] = append(views[rank], v) }}
		})
	if err != nil {
		t.Fatal(err)
	}
	return g, views
}

// assertAgreedView checks every survivor installed a final view of want
// members not containing gone, and that all survivors agree on it.
func assertAgreedView(t *testing.T, g *ClusterGroup, views [][]*event.View, gone int, want int) {
	t.Helper()
	var ref *event.View
	for r := range g.Members {
		if r == gone {
			continue
		}
		if len(views[r]) == 0 {
			t.Fatalf("member %d never installed a new view", r)
		}
		last := views[r][len(views[r])-1]
		if last.N() != want {
			t.Fatalf("member %d last view has %d members, want %d", r, last.N(), want)
		}
		if last.RankOf(g.Members[gone].addr) != -1 {
			t.Fatalf("member %d last view still contains the departed member", r)
		}
		if ref == nil {
			ref = last
		} else if last.ID != ref.ID {
			t.Fatalf("member %d installed view %v, others %v", r, last.ID, ref.ID)
		}
	}
}

// TestTreeViewChangeOnLeave16: at 16 members the 4-ary tree has an
// interior level; a graceful leave must still install one agreed 15-member
// view at every survivor, with the flush and the view announcement
// travelling tree edges instead of the coordinator's O(N) direct load.
func TestTreeViewChangeOnLeave16(t *testing.T) {
	const n, leaver = 16, 3
	g, views := treeGroup(t, n, 41)
	exited := false
	g.Members[leaver].h.OnExit = func() { exited = true }
	g.Run(int64(1e9))
	g.Do(leaver, 0, func() { g.Members[leaver].Leave() })
	g.Run(int64(30e9))

	if !exited {
		t.Fatal("leaving member never got OnExit")
	}
	assertAgreedView(t, g, views, leaver, n-1)
}

// TestTreeViewChangeOnCrash16: a crash mid-tree (rank 5 is an interior
// position's child) is detected by the suspect layer and flushed out
// over the tree; all 15 survivors agree on the new view.
func TestTreeViewChangeOnCrash16(t *testing.T) {
	const n, crashed = 16, 5
	g, views := treeGroup(t, n, 43)
	g.Run(int64(1e9))
	g.Do(crashed, 0, func() { g.Members[crashed].Shutdown() })
	g.Run(int64(40e9))
	assertAgreedView(t, g, views, crashed, n-1)
}

// TestTreeTrafficContinuesAfterViewChange: casts keep flowing in the
// post-change view under the tree topology, and casts submitted during
// the flush are not lost (virtual synchrony is topology-independent).
func TestTreeTrafficContinuesAfterViewChange(t *testing.T) {
	const n, crashed = 16, 7
	got := map[string]int{}
	g, err := NewClusterGroup(n, netsim.Profile{Latency: 50_000}, 59, layers.StackVsync(), stack.Func,
		func(rank int) Handlers {
			if rank != 0 {
				return Handlers{}
			}
			return Handlers{OnCast: func(origin int, payload []byte) { got[string(payload)]++ }}
		})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(int64(1e9))
	g.Do(crashed, 0, func() { g.Members[crashed].Shutdown() })
	// Cast from rank 1 while the failure is detected and flushed.
	g.Do(1, int64(500e6), func() { g.Members[1].Cast([]byte("during")) })
	g.Run(int64(40e9))
	if g.Members[1].View().N() != n-1 {
		t.Fatalf("member 1 still in view of %d", g.Members[1].View().N())
	}
	g.Do(1, 0, func() { g.Members[1].Cast([]byte("after")) })
	g.Run(int64(10e9))
	if got["during"] != 1 {
		t.Fatalf("cast during the flush delivered %d times at member 0, want 1", got["during"])
	}
	if got["after"] != 1 {
		t.Fatalf("post-view-change cast delivered %d times at member 0, want 1", got["after"])
	}
}

// TestViewChangeSweep is the property check for the one membership
// protocol: at every tree shape the fanout-4 layout takes below two
// dozen members (a lone root, a root with leaves only, one interior
// level, and — at 22 — two), removing the root, an interior relay or a
// leaf, by graceful leave or by crash, interpreted or through the
// bypass, must leave every survivor in one agreed view, with equal
// delivery sets per view (virtual synchrony) and with a cast submitted
// while the application was blocked delivered exactly once.
func TestViewChangeSweep(t *testing.T) {
	for _, n := range []int{2, 3, 5, 6, 8, 15, 16, 22} {
		// Rank 1 relays for ranks 5.. once there are that many; below,
		// it is a second leaf.
		for _, victim := range []int{0, 1, n - 1} {
			if victim == n-1 && victim <= 1 {
				continue
			}
			for _, crash := range []bool{false, true} {
				for _, optimized := range []bool{false, true} {
					name := fmt.Sprintf("n%d/victim%d/crash=%t/mach=%t", n, victim, crash, optimized)
					t.Run(name, func(t *testing.T) { viewChangeCase(t, n, victim, crash, optimized) })
				}
			}
		}
	}
}

// TestEveryMemberLeaves: the sweep above always leaves a survivor. When
// the whole view leaves (a singleton's Leave, or every member of a small
// group at once) the last coordinator is outside its own survivor set
// and has no one to agree with; each member must still get OnExit.
func TestEveryMemberLeaves(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6, 17} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			exited := make([]int, n)
			g, err := NewClusterGroup(n, netsim.Profile{Latency: 50_000}, int64(71+n), layers.StackVsync(), stack.Func,
				func(rank int) Handlers { return Handlers{OnExit: func() { exited[rank]++ }} })
			if err != nil {
				t.Fatal(err)
			}
			g.Run(int64(200e6))
			for r := range g.Members {
				g.Do(r, 0, func() { g.Members[r].Leave() })
			}
			g.Run(int64(10e9))
			for r, c := range exited {
				if c != 1 {
					t.Fatalf("member %d got OnExit %d times, want 1 (all: %v)", r, c, exited)
				}
			}
		})
	}
}

// TestHeldCastDeliveredInAnnouncedView: a cast the application issues
// while blocked is held through the flush and resubmitted in the next
// view. When its sender is that view's sequencer the resubmission is
// delivered back to it on the spot — which must be after OnView told the
// application about the view, and ahead of anything OnView itself casts.
func TestHeldCastDeliveredInAnnouncedView(t *testing.T) {
	for _, optimized := range []bool{false, true} {
		t.Run(fmt.Sprintf("mach=%t", optimized), func(t *testing.T) {
			var g *ClusterGroup
			var announced *event.View
			var log []string
			handlers := func(rank int) Handlers {
				if rank != 1 {
					return Handlers{}
				}
				return Handlers{
					OnBlock: func() { g.Members[1].Cast([]byte("held")) },
					OnView: func(v *event.View) {
						announced = v
						g.Members[1].Cast([]byte("from OnView"))
					},
					OnCast: func(origin int, payload []byte) {
						if cur := g.Members[1].View(); cur.N() == 2 {
							if announced == nil || announced.ID != cur.ID {
								t.Errorf("%q delivered in view %v before OnView announced it", payload, cur.ID)
							}
							log = append(log, string(payload))
						}
					},
				}
			}
			newGroup := NewClusterGroup
			if optimized {
				newGroup = func(n int, p netsim.Profile, seed int64, names []string, mode stack.Mode, h func(int) Handlers) (*ClusterGroup, error) {
					return NewOptimizedClusterGroup(n, p, seed, names, mode, h)
				}
			}
			g, err := newGroup(3, netsim.Profile{Latency: 50_000}, 73, layers.StackVsync(), stack.Func, handlers)
			if err != nil {
				t.Fatal(err)
			}
			g.Run(int64(200e6))
			g.Do(0, 0, func() { g.Members[0].Leave() })
			g.Run(int64(5e9))
			if want := []string{"held", "from OnView"}; !slices.Equal(log, want) {
				t.Fatalf("rank 1 delivered %v in the new view, want %v", log, want)
			}
		})
	}
}

func viewChangeCase(t *testing.T, n, victim int, crash, optimized bool) {
	var g *ClusterGroup
	var err error
	caster := (victim + 1) % n
	got := make([][]string, n) // "view/origin address/payload" per delivery
	views := make([]*event.View, n)
	blocked := false
	handlers := func(rank int) Handlers {
		return Handlers{
			OnView: func(v *event.View) { views[rank] = v },
			OnCast: func(origin int, payload []byte) {
				// Tagged with the last view the application was told about.
				v := views[rank]
				if v == nil {
					v = g.Members[rank].View() // the initial view is not announced
				}
				got[rank] = append(got[rank], fmt.Sprintf("%v/%d/%s", v.ID, v.Members[origin], payload))
			},
			OnBlock: func() {
				if rank == caster && !blocked {
					blocked = true
					g.Do(caster, 0, func() { g.Members[caster].Cast([]byte("during")) })
				}
			},
		}
	}
	profile, seed := netsim.Profile{Latency: 50_000}, int64(67+n)
	if optimized {
		g, err = NewOptimizedClusterGroup(n, profile, seed, layers.StackVsync(), stack.Func, handlers)
	} else {
		g, err = NewClusterGroup(n, profile, seed, layers.StackVsync(), stack.Func, handlers)
	}
	if err != nil {
		t.Fatal(err)
	}
	g.Run(int64(200e6))
	g.Do(caster, 0, func() { g.Members[caster].Cast([]byte("before")) })
	g.Do(victim, int64(10e6), func() {
		g.Members[victim].Cast([]byte("last words"))
		if crash {
			g.Members[victim].Shutdown()
		} else {
			g.Members[victim].Leave()
		}
	})
	settled := func() bool {
		for r, m := range g.Members {
			if r != victim && m.View().N() != n-1 {
				return false
			}
		}
		return true
	}
	for i := 0; i < 100 && !settled(); i++ {
		g.Run(int64(100e6))
	}
	if !settled() {
		t.Fatal("survivors never all installed the next view")
	}
	g.Do(caster, 0, func() { g.Members[caster].Cast([]byte("after")) })
	g.Run(int64(200e6))

	ref := -1
	for r := range g.Members {
		if r == victim {
			continue
		}
		if ref < 0 {
			ref = r
		}
		v, rv := g.Members[r].View(), g.Members[ref].View()
		if v.ID != rv.ID || v.N() != n-1 || v.RankOf(g.Members[victim].addr) >= 0 {
			t.Fatalf("member %d ended in view %v, member %d in %v", r, v, ref, rv)
		}
		// Same deliveries in the same views: every survivor went through
		// the same two views, so its whole tagged log must match (order
		// within a view is total's business and is pinned elsewhere).
		slices.Sort(got[r])
		if !slices.Equal(got[r], got[ref]) {
			t.Fatalf("member %d delivered %v, member %d delivered %v", r, got[r], ref, got[ref])
		}
		for _, want := range []string{"before", "during", "after"} {
			c := 0
			for _, d := range got[r] {
				if strings.HasSuffix(d, "/"+want) {
					c++
				}
			}
			if c != 1 {
				t.Fatalf("member %d delivered %q %d times, want 1 (log %v)", r, want, c, got[r])
			}
		}
	}
}
