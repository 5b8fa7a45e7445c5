package opt

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// One header codec for every engine (§4.1.3). A wire signature fixes a
// message's header variants and the values of their constant fields, so
// a header stack of a known signature rides as the signature's 16-bit
// identifier and its free fields only. The table below holds every
// signature the members of a view can send — each rank's data cast and
// send, and its control messages — built once per process for a stack
// and a view size and shared read-only by every engine of that shape,
// plain or optimized. At the net exit an engine matches the exiting
// header stack against its rank's signatures (an optimized member's
// control signatures only: its data leaves compressed from the compiled
// path) and emits the compressed image on a match; on arrival it
// rebuilds the header stack from the identifier in one table-driven
// pass. The full TLV image (Marshal, UnmarshalFor) stays for the shapes
// no signature covers: gossip, suspicion pings, NAK-driven
// retransmissions, membership control, fragments.

// sigTable is the header codec of one stack at one view size.
type sigTable struct {
	// sigs lists every signature once, in derivation order: each rank's
	// data casts, then its data sends, then its control messages; ids
	// are their identifiers, in the same order. A stack has a handful,
	// so an arrival finds its own by scanning ids.
	sigs []*sigCodec
	ids  []uint16
	// cast[r] and send[r] are rank r's data signatures (nil for none);
	// exit[r] is what its net exit recognizes: its control signatures,
	// ctrl[r], then its data ones.
	cast, send []*sigCodec
	exit, ctrl [][]*sigCodec
	// wireIDs are the layers' header codec ids, top first: the shape a
	// full image must have (transport.UnmarshalFor).
	wireIDs []byte
}

// sigCodec is one signature's entry in the table: what it takes to
// recognize a header stack of its shape and to rebuild one.
type sigCodec struct {
	sig  WireSig
	id   uint16
	cast bool
	// appl is the message's application flag: set when the signature
	// covers every layer, clear for a message that originates mid-stack.
	appl bool
	// ctrl marks a control signature; pid is its recognizer's dispatch
	// identity and probe the entry that tells it from the data
	// signatures of its depth, read first.
	ctrl  bool
	pid   PathID
	probe int
	// upPid is the identity of the compiled up path that decodes it.
	upPid PathID
	ents  []sigEnt // push order, top first, as sig.Entries
	nvary int
}

// sigEnt is one header of a signature.
type sigEnt struct {
	spec   *ir.HdrSpec
	consts []constField
	// varies are the spec field indices of the wire fields, in wire
	// order; vary0 is where they start among the signature's.
	varies []int
	vary0  int
	// fixed is the TLV encoding of an entry whose fields are all
	// constants, and hdr its header when every rebuild can share it (a
	// value, not pooled); prefix is what the encoding of any other entry
	// opens with (transport.SpecPrefix).
	fixed  []byte
	hdr    event.Header
	prefix []byte
}

// constField is one constant header field (index into the spec's
// Fields order).
type constField struct {
	idx int
	val int64
}

// sigTables memoizes sigTableFor by view size and the layer states'
// names.
var sigTables sync.Map

type sigTableOrErr struct {
	tab *sigTable
	err error
}

// sigTableFor returns the header codec of a stack whose layer states are
// states, at a view of n. It is keyed by the states' names, not by
// component names: a wrapper component (the benchmark's timing shims)
// is registered under another name than the layer whose headers it
// pushes. The table is a function of the registered IR, the stack and n
// alone, so a process derives it once; it is shared and must not be
// modified.
func sigTableFor(states []layer.State, n int) (*sigTable, error) {
	var key strings.Builder
	key.WriteString(strconv.Itoa(n))
	for _, st := range states {
		key.WriteByte('/')
		key.WriteString(st.Name())
	}
	if v, ok := sigTables.Load(key.String()); ok {
		return v.(*sigTableOrErr).tab, v.(*sigTableOrErr).err
	}
	names := make([]string, len(states))
	for i, st := range states {
		names[i] = st.Name()
	}
	tab, err := newSigTable(names, n)
	v, _ := sigTables.LoadOrStore(key.String(), &sigTableOrErr{tab, err})
	return v.(*sigTableOrErr).tab, v.(*sigTableOrErr).err
}

// newSigTable derives the table of the named stack (top first) at a view
// of n. Two different signatures that hash to one identifier would
// decode ambiguously, and are an error.
func newSigTable(names []string, n int) (*sigTable, error) {
	sent := sendable(names, n)
	t := &sigTable{
		cast:    make([]*sigCodec, n),
		send:    make([]*sigCodec, n),
		exit:    make([][]*sigCodec, n),
		ctrl:    make([][]*sigCodec, n),
		wireIDs: transport.StackIDs(names),
	}
	add := func(sig *WireSig, ctrl *ctrlSpec) (*sigCodec, error) {
		id := sig.ID()
		if i := t.index(id); i >= 0 {
			if !sigEqual(&t.sigs[i].sig, sig) {
				return nil, fmt.Errorf("opt: two wire signatures of %s at %d members share identifier %#04x", strings.Join(names, "|"), n, id)
			}
			return t.sigs[i], nil
		}
		sc, err := t.newSigCodec(names, *sig, id, ctrl)
		if err != nil {
			return nil, err
		}
		t.sigs, t.ids = append(t.sigs, sc), append(t.ids, id)
		return sc, nil
	}
	var err error
	for r := range n {
		if sig := sent.dn[ir.DnCast][r]; sig != nil {
			if t.cast[r], err = add(sig, nil); err != nil {
				return nil, err
			}
		}
	}
	for r := range n {
		if sig := sent.dn[ir.DnSend][r]; sig != nil {
			if t.send[r], err = add(sig, nil); err != nil {
				return nil, err
			}
		}
	}
	for r := range n {
		for i := range sent.ctrl[r] {
			sc, err := add(&sent.ctrl[r][i].sig, &sent.ctrl[r][i])
			if err != nil {
				return nil, err
			}
			t.exit[r] = append(t.exit[r], sc)
		}
		t.ctrl[r] = t.exit[r][:len(t.exit[r]):len(t.exit[r])]
		for _, sc := range []*sigCodec{t.cast[r], t.send[r]} {
			if sc != nil {
				t.exit[r] = append(t.exit[r], sc)
			}
		}
	}
	return t, nil
}

// index is the position in sigs of the signature with identifier id,
// -1 for none.
func (t *sigTable) index(id uint16) int {
	for i, x := range t.ids {
		if x == id {
			return i
		}
	}
	return -1
}

// sigEqual reports whether two signatures are the same shape.
func sigEqual(a, b *WireSig) bool {
	return a.Path == b.Path && slices.EqualFunc(a.Entries, b.Entries, func(x, y SigEntry) bool {
		return x.Layer == y.Layer && x.Variant == y.Variant && slices.Equal(x.Fields, y.Fields)
	})
}

// newSigCodec builds the entry of sig, whose identifier is id, for the
// named stack; ctrl is its control spec, nil for a data signature.
func (t *sigTable) newSigCodec(names []string, sig WireSig, id uint16, ctrl *ctrlSpec) (*sigCodec, error) {
	top := len(names) - len(sig.Entries)
	if top < 0 {
		return nil, fmt.Errorf("opt: signature has %d entries, the stack %d layers", len(sig.Entries), len(names))
	}
	sc := &sigCodec{sig: sig, id: id, cast: sig.Path.Kind == event.ECast, appl: top == 0}
	switch {
	case ctrl != nil:
		sc.ctrl, sc.pid, sc.upPid = true, ctrl.pid, ctrl.upPid
	case sc.cast:
		sc.upPid = PathUpCast
	default:
		sc.upPid = PathUpSend
	}
	var w transport.Writer
	for i, en := range sig.Entries {
		if en.Layer != names[top+i] {
			return nil, fmt.Errorf("opt: signature entry %d is for layer %q, the stack has %q there", i, en.Layer, names[top+i])
		}
		def, err := ir.LookupDef(en.Layer)
		if err != nil {
			return nil, err
		}
		spec, err := def.HdrSpecByVariant(en.Variant)
		if err != nil {
			return nil, err
		}
		if ctrl != nil && en.Layer == ctrl.probeLayer {
			sc.probe = i
		}
		e := sigEnt{spec: spec, vary0: sc.nvary}
		vals := make([]int64, len(spec.Fields))
		set := make([]bool, len(spec.Fields))
		for _, f := range en.Fields {
			j := slices.Index(spec.Fields, f.Name)
			if j < 0 || set[j] {
				return nil, fmt.Errorf("opt: signature field %s.%s is not a field of %s, or is twice in it", en.Layer, f.Name, en.Variant)
			}
			set[j] = true
			if f.Const {
				e.consts = append(e.consts, constField{idx: j, val: f.Val})
				vals[j] = f.Val
			} else {
				e.varies = append(e.varies, j)
			}
		}
		if j := slices.Index(set, false); j >= 0 {
			return nil, fmt.Errorf("opt: signature entry %s.%s lacks field %q", en.Layer, en.Variant, spec.Fields[j])
		}
		sc.nvary += len(e.varies)
		if len(e.varies) == 0 {
			h := spec.Make(vals)
			w.Reset()
			if err := transport.EncodeHeader(h, &w); err != nil {
				return nil, err
			}
			e.fixed = slices.Clone(w.Header())
			if _, pooled := h.(event.PooledHeader); pooled {
				event.FreeHeader(h)
			} else {
				e.hdr = h
			}
		} else {
			var ok bool
			if e.prefix, ok = transport.SpecPrefix(t.wireIDs[top+i], spec); !ok {
				return nil, fmt.Errorf("opt: signature entry %s.%s has wire fields, and its layer's codec writes its own encoding", en.Layer, en.Variant)
			}
		}
		sc.ents = append(sc.ents, e)
	}
	return sc, nil
}

// match reports whether ev, at the net exit, has sc's shape: its kind,
// its application flag and, header for header (top first), sc's variants
// and constants. On a match it appends the wire fields to vary. vals is
// the caller's scratch for one header's fields, kept grown.
func (sc *sigCodec) match(ev *event.Event, vals *[]int64, vary []int64) ([]int64, bool) {
	hdrs := ev.Msg.Headers
	if sc.cast != (ev.Type == event.ECast) || len(hdrs) != len(sc.ents) || ev.ApplMsg != sc.appl ||
		!sc.read(sc.probe, hdrs, vals) {
		return vary, false
	}
	for i := range sc.ents {
		if !sc.read(i, hdrs, vals) {
			return vary, false
		}
		for _, j := range sc.ents[i].varies {
			vary = append(vary, (*vals)[j])
		}
	}
	return vary, true
}

// read reads entry i's header into vals and checks its constants.
func (sc *sigCodec) read(i int, hdrs []event.Header, vals *[]int64) bool {
	en := &sc.ents[i]
	v, ok := en.spec.Read(hdrs[i], (*vals)[:0])
	*vals = v
	if !ok {
		return false
	}
	for _, c := range en.consts {
		if v[c.idx] != c.val {
			return false
		}
	}
	return true
}

// Compressed wire format:
//
//	magic    byte   = transport.WireCompressed
//	id       uint16 little-endian (the wire signature hash)
//	sender   uvarint (rank)
//	varying  n × varint (field count fixed by the signature)
//	payload  rest
//
// appendWire appends the compressed image of a message of sc from
// sender.
func (sc *sigCodec) appendWire(dst []byte, sender int, vary []int64, payload []byte) []byte {
	dst = append(dst, transport.WireCompressed, byte(sc.id), byte(sc.id>>8))
	dst = binary.AppendUvarint(dst, uint64(sender))
	for _, v := range vary {
		dst = binary.AppendVarint(dst, v)
	}
	return append(dst, payload...)
}

// parse reads a compressed image at a member of a view of n: its
// signature's position in sigs, the sender's rank, the wire fields (into
// vary, grown as needed) and the payload. False for an unknown
// identifier, a sender outside the view — it would index per-member
// state out of range — or an image cut short.
func (t *sigTable) parse(data []byte, n int, vary *[]int64) (at, sender int, payload []byte, ok bool) {
	if len(data) < 3 || data[0] != transport.WireCompressed {
		return 0, 0, nil, false
	}
	at = t.index(uint16(data[1]) | uint16(data[2])<<8)
	if at < 0 {
		return 0, 0, nil, false
	}
	sc := t.sigs[at]
	rest := data[3:]
	r, k := binary.Uvarint(rest)
	if k <= 0 || r >= uint64(n) {
		return 0, 0, nil, false
	}
	rest = rest[k:]
	if cap(*vary) < sc.nvary {
		*vary = make([]int64, sc.nvary)
	}
	*vary = (*vary)[:sc.nvary]
	for i := range *vary {
		v, k := binary.Varint(rest)
		if k <= 0 {
			return 0, 0, nil, false
		}
		(*vary)[i], rest = v, rest[k:]
	}
	return at, int(r), rest, true
}

// build pushes sc's top k headers onto ev's empty header stack in one
// pass, from the signature's constants and the arrival's wire fields
// vary, staging each header's values in hv (grown as needed). It also
// writes the headers' TLV encoding into storage ev owns and records it
// (event.Message.SetOwnEncoded), so a layer that retains the message
// copies those bytes instead of encoding its headers.
func (sc *sigCodec) build(ev *event.Event, vary []int64, k int, hv *[]int64) {
	m := &ev.Msg
	if cap(m.Headers) < k {
		m.Headers = make([]event.Header, k)
	}
	m.Headers = m.Headers[:k] // every slot is written below
	hdrs := m.Headers
	offs, img := m.EncOffsets(), m.OwnEncoding()
	// Outermost (the bottom layer's, the highest index) first, as the
	// TLV image runs.
	for i := k - 1; i >= 0; i-- {
		en := &sc.ents[i]
		offs[i] = uint32(len(img))
		img = append(img, en.fixed...)
		if en.hdr != nil {
			hdrs[i] = en.hdr
			continue
		}
		n := len(en.spec.Fields)
		if cap(*hv) < n {
			*hv = make([]int64, n)
		}
		vals := (*hv)[:n]
		for _, c := range en.consts {
			vals[c.idx] = c.val
		}
		for t, j := range en.varies {
			vals[j] = vary[en.vary0+t]
		}
		hdrs[i] = en.spec.Make(vals)
		if en.fixed == nil {
			// The values as the header holds them: a field narrower than
			// int64 keeps only what fits, and so does its encoding.
			vals, _ = en.spec.Read(hdrs[i], vals[:0])
			img = append(img, en.prefix...)
			for _, v := range vals {
				img = binary.AppendVarint(img, v)
			}
		}
	}
	m.SetOwnEncoded(img)
}
