package opt

// Sendable lists every signature the members of a view of n can send
// compressed, data and control, by identifier.
func Sendable(names []string, n int) map[uint16]WireSig { return sendable(names, n).all() }

// UpTheorem is the theorem of the up path that decodes a signature; nil
// for none.
func (e *Engine) UpTheorem(id uint16) *StackTheorem {
	if cp := e.upPath(id); cp != nil {
		return cp.th
	}
	return nil
}
