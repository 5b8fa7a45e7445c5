package core

import (
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

// ClusterGroup bundles the members of one simulated process group with
// the netsim.Cluster they share: each member is pinned to its own
// netsim.Endpoint (Eps[i] is Members[i]'s network and clock). Run
// drives it on the calling goroutine; RunConcurrent executes the
// members on one goroutine each between deterministic scheduler
// barriers, and for a given seed produces the identical delivery order
// (see netsim.Cluster). Between runs the driving goroutine may call
// Member methods directly and reach the medium through Cluster.Net()
// (Partition, SetFilter, Detach, Stats); work for a later virtual time
// goes through Do.
type ClusterGroup struct {
	Cluster *netsim.Cluster
	Eps     []*netsim.Endpoint
	Members []*Member
}

// NewClusterGroup builds n members at addresses 1..n over a cluster
// simulation, all running the same named stack under the same mode,
// and starts their timers.
func NewClusterGroup(n int, profile netsim.Profile, seed int64, names []string, mode stack.Mode, handlers func(rank int) Handlers) (*ClusterGroup, error) {
	return newClusterGroup(n, profile, seed, names, mode, handlers, false)
}

// NewOptimizedClusterGroup is NewClusterGroup with every member running
// the machine-generated bypass (see NewOptimizedMember).
func NewOptimizedClusterGroup(n int, profile netsim.Profile, seed int64, names []string, mode stack.Mode, handlers func(rank int) Handlers) (*ClusterGroup, error) {
	return newClusterGroup(n, profile, seed, names, mode, handlers, true)
}

func newClusterGroup(n int, profile netsim.Profile, seed int64, names []string, mode stack.Mode, handlers func(rank int) Handlers, optimized bool) (*ClusterGroup, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: group size %d", n)
	}
	c := netsim.NewCluster(seed, profile)
	addrs := make([]event.Addr, n)
	for i := range addrs {
		addrs[i] = event.Addr(i + 1)
	}
	g := &ClusterGroup{Cluster: c}
	for i := 0; i < n; i++ {
		ep := c.NewEndpoint(addrs[i])
		v := event.NewView("group", 1, addrs, i)
		var h Handlers
		if handlers != nil {
			h = handlers(i)
		}
		m, err := newMember(ep, ep, v, names, mode, h, optimized)
		if err != nil {
			return nil, err
		}
		m.Start()
		g.Eps = append(g.Eps, ep)
		g.Members = append(g.Members, m)
	}
	return g, nil
}

// Run advances the cluster by d nanoseconds of virtual time,
// sequentially.
func (g *ClusterGroup) Run(d int64) { g.Cluster.Run(g.Cluster.Sim().Now() + d) }

// RunConcurrent advances the cluster by d nanoseconds with members
// draining on their own goroutines, at most workers at a time.
func (g *ClusterGroup) RunConcurrent(d int64, workers int) {
	g.Cluster.RunConcurrent(g.Cluster.Sim().Now()+d, workers)
}

// Do schedules fn on member rank's goroutine after delay nanoseconds of
// virtual time — the way a test injects application casts and sends
// into a running cluster (calling Member methods from the driving
// goroutine mid-run would violate the affinity discipline).
func (g *ClusterGroup) Do(rank int, delay int64, fn func()) { g.Cluster.Enqueue(rank, delay, fn) }
