package core

import (
	"fmt"

	"ensemble/internal/layers"
)

// Property names a guarantee an application can require of its stack.
// The paper (§3.2) describes Ensemble's algorithm for calculating stacks
// from required properties: it "encodes knowledge of the protocol
// designers" — dependencies between micro-protocols and the one legal
// vertical order — and covers a bounded vocabulary of properties
// ("approximately two dozen" in Ensemble; the subset our component
// library supports here).
type Property string

const (
	// PropReliableMcast: gap-free FIFO multicast per origin.
	PropReliableMcast Property = "reliable-mcast"
	// PropReliableSend: gap-free FIFO point-to-point delivery.
	PropReliableSend Property = "reliable-send"
	// PropTotalOrder: all members deliver all multicasts in one order.
	PropTotalOrder Property = "total-order"
	// PropFlowControl: bounded outstanding traffic in both patterns.
	PropFlowControl Property = "flow-control"
	// PropFragmentation: payloads of any size.
	PropFragmentation Property = "fragmentation"
	// PropStability: stability vectors reported, retransmission buffers
	// garbage collected.
	PropStability Property = "stability"
	// PropSelfDelivery: a member's own multicasts are delivered to it.
	PropSelfDelivery Property = "self-delivery"
	// PropMembership: dynamic views with virtual synchrony.
	PropMembership Property = "membership"
	// PropFailureDetection: unresponsive members are suspected.
	PropFailureDetection Property = "failure-detection"
	// PropAuthenticity: payloads carry HMAC tags bound to the view.
	PropAuthenticity Property = "authenticity"
)

// Properties lists every property SelectStack understands.
func Properties() []Property {
	return []Property{
		PropReliableMcast, PropReliableSend, PropTotalOrder,
		PropFlowControl, PropFragmentation, PropStability,
		PropSelfDelivery, PropMembership, PropFailureDetection,
		PropAuthenticity,
	}
}

// layerOrder is the one legal vertical order of the component library,
// top first. A configuration is the subsequence of this order induced by
// the selected components — encoding the designers' knowledge of which
// layer must sit above which.
var layerOrder = []string{
	layers.PartialAppl,
	layers.Top,
	layers.Total,
	layers.Membership,
	layers.Suspect,
	layers.Local,
	layers.Collect,
	layers.Sign,
	layers.Frag,
	layers.Pt2ptw,
	layers.Mflow,
	layers.Pt2pt,
	layers.Mnak,
	layers.Bottom,
}

// asks maps each property to the boundary guarantees it asks of the
// stack. The components are then those adding the guarantees, closed
// under what each component's contract requires (layers.ContractOf).
var asks = map[Property][]layers.Guarantee{
	// Reliable multicast as a *service* includes repair liveness: mnak's
	// NAKs only fire when later traffic reveals a gap, and the collect
	// layer's periodic gossip is that traffic. (The paper's 4-layer stack
	// omits collect and accepts the weaker guarantee.)
	PropReliableMcast:    {layers.GReliableCast, layers.GStability},
	PropReliableSend:     {layers.GReliableSend},
	PropTotalOrder:       {layers.GTotalOrder},
	PropFlowControl:      {layers.GFlowCast, layers.GFlowSend},
	PropFragmentation:    {layers.GAnySize},
	PropStability:        {layers.GStability},
	PropSelfDelivery:     {layers.GSelfDelivery},
	PropMembership:       {layers.GMembership},
	PropFailureDetection: {layers.GFailureDetection},
	PropAuthenticity:     {layers.GAuthenticity},
}

// Guarantees returns the boundary guarantees p asks of a stack, nil for
// an unknown property.
func (p Property) Guarantees() []layers.Guarantee { return asks[p] }

// SelectStack computes a protocol stack (component names, top first)
// providing the requested properties, mirroring Ensemble's stack
// calculation heuristic (§3.2). The result always includes the
// reliability base and a top-of-stack application interface.
func SelectStack(props []Property) ([]string, error) {
	// The reliability base is always present: both reliable multicast and
	// reliable point-to-point, as in the paper's 4-layer stack. The
	// application interface layers assume both.
	selected := map[string]bool{layers.Mnak: true, layers.Pt2pt: true, layers.Bottom: true}
	// provider[g] is the component of the library adding g; the two
	// application interfaces add the same guarantee, and no component
	// requires it, so which one is kept does not matter.
	provider := map[layers.Guarantee]string{}
	for _, c := range layerOrder {
		contract, _ := layers.ContractOf(c)
		for _, g := range contract.Adds {
			provider[g] = c
		}
	}
	var work []layers.Guarantee
	for _, p := range props {
		gs, ok := asks[p]
		if !ok {
			return nil, fmt.Errorf("core: unknown property %q", p)
		}
		work = append(work, gs...)
	}
	for len(work) > 0 {
		c := provider[work[len(work)-1]]
		work = work[:len(work)-1]
		if selected[c] {
			continue
		}
		selected[c] = true
		contract, _ := layers.ContractOf(c)
		work = append(work, contract.Requires...)
	}
	// Pick the application interface: the large-stack interface when the
	// configuration carries ordering or membership machinery, the plain
	// top layer otherwise — matching how the paper's two stacks differ.
	if selected[layers.Total] || selected[layers.Membership] {
		selected[layers.PartialAppl] = true
	} else {
		selected[layers.Top] = true
	}
	var out []string
	for _, c := range layerOrder {
		if selected[c] {
			out = append(out, c)
		}
	}
	return out, nil
}
