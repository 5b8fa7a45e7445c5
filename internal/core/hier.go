package core

import (
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

// Hierarchical groups: N members run as G leaf groups of P bridged by a
// spine group of G relay members, instead of one N-member view. Every
// group — leaf or spine — is an ordinary protocol-stack group; the
// relay is "just another protocol stack whose properties must compose":
// one member in the spine view co-located with a leaf group, forwarding
// application casts between the two views it can reach. Group state
// (stability vectors, membership flushes, gossip) stays O(P) per leaf
// and O(G) on the spine, which is what lets 256 members share
// infrastructure that a flat 256-member view would drown in.
//
// Bridging rides the cluster scheduler's Post primitive: the leaf-side
// and spine-side halves of a relay are two members (two endpoints, two
// stacks), and a payload crossing between them is handed from one
// member's goroutine to the other's as a deterministic scheduled event.
// Calling the other half's Cast directly would violate the one-goroutine
// -per-member discipline (and trips its affinity assert).

// Hierarchy-wide casts travel wrapped in a one-byte direction tag plus
// the global origin rank, so receivers can deliver with the true origin
// and relays can tell fresh traffic from forwarded traffic (loop
// prevention: only hierLocal casts go up, hierDown casts are never
// re-forwarded).
const (
	hierLocal byte = iota // cast by its origin inside its own leaf group
	hierUp                // relayed into the spine by the origin group's relay
	hierDown              // relayed from the spine into a leaf group
)

// HierGroup is a 2-level hierarchy over one shared netsim.Cluster:
// Groups leaf groups of Per members each, plus one spine group with one
// relay member per leaf group. Global ranks are 0..Groups*Per-1 in leaf
// order (global g*Per+i is member i of leaf group g).
type HierGroup struct {
	Cluster *netsim.Cluster
	Groups  int
	Per     int

	// Leaf[g][i] is member i of leaf group g; LeafEps[g][i] its endpoint.
	Leaf    [][]*Member
	LeafEps [][]*netsim.Endpoint
	// Spine[g] is the spine-side half of group g's relay; its leaf-side
	// half is Leaf[g][0]. SpineEps[g] is its endpoint.
	Spine    []*Member
	SpineEps []*netsim.Endpoint
}

// leafAddr and spineAddr lay out the address space: leaf members get
// 1..Groups*Per, spine members follow.
func (hg *HierGroup) leafAddr(g, i int) event.Addr {
	return event.Addr(g*hg.Per + i + 1)
}
func (hg *HierGroup) spineAddr(g int) event.Addr {
	return event.Addr(hg.Groups*hg.Per + g + 1)
}

// epIdx maps a global leaf rank to its endpoint index. Endpoints are
// created leaf group by leaf group, each group immediately followed by
// its spine relay, so a contiguous shard partition of Groups shards
// puts every group and its relay in one shard — intra-group traffic
// (the overwhelming share) never crosses a shard boundary.
func (hg *HierGroup) epIdx(global int) int {
	return (global/hg.Per)*(hg.Per+1) + global%hg.Per
}
func (hg *HierGroup) spineEpIdx(g int) int { return g*(hg.Per+1) + hg.Per }

// NewHierGroup builds a Groups x Per hierarchy over a fresh cluster,
// with the scheduler sharded one shard per group. All members run the
// named stack (which must include membership if relays are expected to
// fail) under the given mode. handlers(global) supplies the per-member
// upcalls; OnCast is delivered with the *global* origin rank.
func NewHierGroup(groups, per int, profile netsim.Profile, seed int64, names []string, mode stack.Mode, handlers func(global int) Handlers) (*HierGroup, error) {
	if groups < 2 || per < 2 {
		return nil, fmt.Errorf("core: hierarchy needs >= 2 groups of >= 2, got %dx%d", groups, per)
	}
	hg := &HierGroup{
		Cluster: netsim.NewCluster(seed, profile),
		Groups:  groups,
		Per:     per,
	}
	spineAddrs := make([]event.Addr, groups)
	for g := 0; g < groups; g++ {
		spineAddrs[g] = hg.spineAddr(g)
	}
	for g := 0; g < groups; g++ {
		leafAddrs := make([]event.Addr, per)
		for i := 0; i < per; i++ {
			leafAddrs[i] = hg.leafAddr(g, i)
		}
		var eps []*netsim.Endpoint
		var members []*Member
		for i := 0; i < per; i++ {
			ep := hg.Cluster.NewEndpoint(leafAddrs[i])
			v := event.NewView(fmt.Sprintf("leaf%d", g), 1, leafAddrs, i)
			m, err := NewMember(ep, ep, v, names, mode, hg.leafHandlers(g, i, handlers))
			if err != nil {
				return nil, err
			}
			m.Start()
			eps = append(eps, ep)
			members = append(members, m)
		}
		hg.LeafEps = append(hg.LeafEps, eps)
		hg.Leaf = append(hg.Leaf, members)

		sep := hg.Cluster.NewEndpoint(spineAddrs[g])
		sv := event.NewView("spine", 1, spineAddrs, g)
		sm, err := NewMember(sep, sep, sv, names, mode, hg.spineHandlers(g))
		if err != nil {
			return nil, err
		}
		sm.Start()
		hg.SpineEps = append(hg.SpineEps, sep)
		hg.Spine = append(hg.Spine, sm)
	}
	hg.Cluster.SetShards(groups)
	return hg, nil
}

// leafHandlers wraps the application's handlers for leaf member (g, i):
// OnCast unwraps the hierarchy envelope and, on the relay leaf (i == 0),
// forwards fresh local traffic up into the spine.
func (hg *HierGroup) leafHandlers(g, i int, handlers func(global int) Handlers) Handlers {
	global := g*hg.Per + i
	var h Handlers
	if handlers != nil {
		h = handlers(global)
	}
	app := h.OnCast
	h.OnCast = func(_ int, data []byte) {
		tag, origin, payload, ok := hierDecode(data)
		if !ok {
			return
		}
		if app != nil {
			app(origin, payload)
		}
		if tag == hierLocal && i == 0 {
			// This member is the leaf-side half of group g's relay: hand
			// the cast to the spine-side half, on its own goroutine.
			wire := hierEncode(hierUp, origin, payload)
			spine, ep := hg.Spine[g], hg.LeafEps[g][0]
			ep.Post(hg.spineAddr(g), 0, func() { spine.Cast(wire) })
		}
	}
	return h
}

// spineHandlers builds the upcalls for the spine-side half of group g's
// relay: every spine cast is an hierUp forward from some origin group,
// and every relay except the origin's re-injects it down into its own
// leaf group.
func (hg *HierGroup) spineHandlers(g int) Handlers {
	return Handlers{
		OnCast: func(_ int, data []byte) {
			tag, origin, payload, ok := hierDecode(data)
			if !ok || tag != hierUp {
				return
			}
			if origin/hg.Per == g {
				// Our own group's cast reflected back to us (self-delivery
				// in the spine view): re-injecting it would deliver the
				// origin group everything twice.
				return
			}
			wire := hierEncode(hierDown, origin, payload)
			leaf, ep := hg.Leaf[g][0], hg.SpineEps[g]
			ep.Post(hg.leafAddr(g, 0), 0, func() { leaf.Cast(wire) })
		},
	}
}

// Cast schedules a hierarchy-wide multicast from global rank `from`
// after delay nanoseconds: the payload is cast in the origin's leaf
// group, relayed through the spine, and delivered by every member of
// every leaf group (the origin included, via the local layer) with the
// origin's global rank.
func (hg *HierGroup) Cast(from int, delay int64, payload []byte) {
	g, i := from/hg.Per, from%hg.Per
	m := hg.Leaf[g][i]
	wire := hierEncode(hierLocal, from, payload)
	hg.Cluster.Enqueue(hg.epIdx(from), delay, func() { m.Cast(wire) })
}

// Do schedules fn on leaf member global's goroutine after delay.
func (hg *HierGroup) Do(global int, delay int64, fn func()) {
	hg.Cluster.Enqueue(hg.epIdx(global), delay, fn)
}

// DoSpine schedules fn on spine relay g's goroutine after delay.
func (hg *HierGroup) DoSpine(g int, delay int64, fn func()) {
	hg.Cluster.Enqueue(hg.spineEpIdx(g), delay, fn)
}

// Run advances the hierarchy by d nanoseconds, sequentially.
func (hg *HierGroup) Run(d int64) { hg.Cluster.Run(hg.Cluster.Sim().Now() + d) }

// RunConcurrent advances by d nanoseconds with members draining on
// worker goroutines; the delivery schedule is identical to Run's.
func (hg *HierGroup) RunConcurrent(d int64, workers int) {
	hg.Cluster.RunConcurrent(hg.Cluster.Sim().Now()+d, workers)
}

// hierEncode wraps a payload in the hierarchy envelope.
func hierEncode(tag byte, origin int, payload []byte) []byte {
	wire := append(make([]byte, 0, 1+10+len(payload)), tag)
	wire = appendUvarint(wire, uint64(origin))
	return append(wire, payload...)
}

// hierDecode unwraps the envelope; ok is false on anything malformed.
func hierDecode(data []byte) (tag byte, origin int, payload []byte, ok bool) {
	if len(data) < 2 {
		return 0, 0, nil, false
	}
	tag = data[0]
	o, n := uvarint(data[1:])
	if n <= 0 || tag > hierDown {
		return 0, 0, nil, false
	}
	return tag, int(o), data[1+n:], true
}
