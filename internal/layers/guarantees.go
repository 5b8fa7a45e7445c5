package layers

// The §3.2 configuration discipline: "For each micro-protocol p, we
// present two abstract specifications, p.Above and p.Below ... when
// proving the correctness of a stack we can limit ourselves to showing
// that, for each pair p and q of adjacent protocol layers, every
// execution of p.Above is also an execution of q.Below". Here a
// boundary's specification is a set of guarantees, and each component
// declares once which guarantees it requires of the service below it and
// which it adds above. The stack checker (check.CheckStack) folds these
// up a configuration; the stack selector (core.SelectStack) reads them
// backwards, from a requested guarantee to the component adding it.

// Guarantee names one property of the service at a layer boundary.
type Guarantee string

// The boundary guarantee vocabulary.
const (
	// GReliableCast: multicasts are delivered gap-free FIFO per origin.
	GReliableCast Guarantee = "reliable-cast"
	// GReliableSend: point-to-point messages are delivered gap-free FIFO.
	GReliableSend Guarantee = "reliable-send"
	// GTotalOrder: all members deliver multicasts in one total order.
	GTotalOrder Guarantee = "total-order"
	// GFlowCast / GFlowSend: bounded outstanding traffic.
	GFlowCast Guarantee = "flow-cast"
	GFlowSend Guarantee = "flow-send"
	// GAnySize: arbitrarily large payloads are framed.
	GAnySize Guarantee = "any-size"
	// GStability: stability vectors are computed and announced.
	GStability Guarantee = "stability"
	// GSelfDelivery: a member's own multicasts are delivered back.
	GSelfDelivery Guarantee = "self-delivery"
	// GMembership: views are installed with virtual synchrony.
	GMembership Guarantee = "membership"
	// GFailureDetection: unresponsive members are suspected.
	GFailureDetection Guarantee = "failure-detection"
	// GAppInterface: the boundary is an application interface.
	GAppInterface Guarantee = "app-interface"
	// GAuthenticity: payloads carry epoch-bound authentication tags.
	GAuthenticity Guarantee = "authenticity"
	// GFifoCast: multicasts are ordered per origin but NOT repaired —
	// weaker than GReliableCast, sufficient only over lossless links.
	GFifoCast Guarantee = "fifo-cast"
	// GChecksum: payload corruption is detected and dropped.
	GChecksum Guarantee = "checksum"
)

// Guarantees lists the vocabulary in its canonical order.
func Guarantees() []Guarantee {
	return []Guarantee{
		GReliableCast, GReliableSend, GTotalOrder, GFlowCast, GFlowSend,
		GAnySize, GStability, GSelfDelivery, GMembership, GFailureDetection, GAppInterface,
		GAuthenticity, GFifoCast, GChecksum,
	}
}

// Contract is a component's Above/Below pair in guarantee terms.
type Contract struct {
	// Requires must hold of the service below the component.
	Requires []Guarantee
	// Adds are the guarantees the component contributes above itself.
	Adds []Guarantee
}

// reliable is what most components ask of the reliability base: both of
// its guarantees.
var reliable = []Guarantee{GReliableCast, GReliableSend}

var contracts = map[string]Contract{
	Bottom:      {},
	Trace:       {},
	Mnak:        {Adds: []Guarantee{GReliableCast}},
	Pt2pt:       {Adds: []Guarantee{GReliableSend}},
	Seqno:       {Adds: []Guarantee{GFifoCast}},
	Mflow:       {Requires: reliable, Adds: []Guarantee{GFlowCast}},
	Pt2ptw:      {Requires: []Guarantee{GReliableSend}, Adds: []Guarantee{GFlowSend}},
	Frag:        {Requires: reliable, Adds: []Guarantee{GAnySize}},
	Collect:     {Requires: reliable, Adds: []Guarantee{GStability}},
	Local:       {Requires: []Guarantee{GReliableCast}, Adds: []Guarantee{GSelfDelivery}},
	Suspect:     {Requires: []Guarantee{GReliableCast}, Adds: []Guarantee{GFailureDetection}},
	Sign:        {Requires: reliable, Adds: []Guarantee{GAuthenticity}},
	Chk:         {Requires: reliable, Adds: []Guarantee{GChecksum}},
	Top:         {Requires: reliable, Adds: []Guarantee{GAppInterface}},
	PartialAppl: {Requires: reliable, Adds: []Guarantee{GAppInterface}},
	// Total order assigns meaning to a member's own casts only if they
	// are delivered back to it.
	Total: {Requires: []Guarantee{GReliableCast, GSelfDelivery}, Adds: []Guarantee{GTotalOrder}},
	// Membership's flush needs the receive vectors, failure detection,
	// reliable control traffic, and the reflection of its own flush casts.
	Membership: {
		Requires: []Guarantee{GReliableCast, GReliableSend, GFailureDetection, GSelfDelivery},
		Adds:     []Guarantee{GMembership},
	},
}

// ContractOf returns a component's contract; ok is false for a name
// without one.
func ContractOf(name string) (c Contract, ok bool) {
	c, ok = contracts[name]
	return c, ok
}
