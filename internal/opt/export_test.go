package opt

import "ensemble/internal/event"

// Sendable lists every signature the members of a view of n can send
// compressed, data and control, by identifier.
func Sendable(names []string, n int) map[uint16]WireSig { return sendable(names, n).all() }

// UpTheorem is the theorem of the up path that decodes a signature; nil
// for none.
func (e *Engine) UpTheorem(id uint16) *StackTheorem {
	if cp := e.upPath(e.tab.index(id)); cp != nil {
		return cp.th
	}
	return nil
}

// Rebuild decodes a compressed image through the signature table, as a
// member whose compiled path does not take it does: the event the stack
// is handed. False when the image does not decode.
func (e *Engine) Rebuild(wire []byte) (*event.Event, bool) {
	var vary, hv []int64
	at, sender, payload, ok := e.tab.parse(wire, e.N, &vary)
	if !ok {
		return nil, false
	}
	sc := e.tab.sigs[at]
	ev := upEvent(sc.cast, sender, sc.appl, payload, false)
	sc.build(ev, vary, len(sc.ents), &hv)
	return ev, true
}
