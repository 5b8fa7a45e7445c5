package ir

import (
	"fmt"
	"sort"
	"sync"

	"ensemble/internal/event"
)

// LayerDef is everything the optimizer knows about one component a
// priori: its IR, its header variants, and the Common Case Predicates
// its author specified for the four fundamental cases (§4.1: "CCPs are
// specified by the programmer of a protocol, and are typically
// determined from run-time statistics").
type LayerDef struct {
	Name string
	IR   LayerIR
	Hdrs []HdrSpec
	CCP  map[PathKey]Expr
	// AltCCP lists additional common cases per path beyond the primary
	// CCP — the multi-CCP extension (§4.1's run-time switch generalized
	// to several specialized paths). Order is the author's preference;
	// candidates are tried in order during composition.
	AltCCP map[PathKey][]Expr
	// Invariants are facts about the layer's state that hold in every
	// reachable state (a counter never negative), assumed whenever a
	// guard or CCP is simplified: they let derivation reject a candidate
	// a signature contradicts, instead of compiling a predicate that
	// fails at run time.
	Invariants []Expr
}

// HdrSpecByVariant finds a header variant by name.
func (d *LayerDef) HdrSpecByVariant(v string) (*HdrSpec, error) {
	for i := range d.Hdrs {
		if d.Hdrs[i].Variant == v {
			return &d.Hdrs[i], nil
		}
	}
	return nil, fmt.Errorf("ir: layer %q has no header variant %q", d.Name, v)
}

// ReadHdr extracts the variant tag and named field values from an
// executable header using the layer's variant specs. The up-path
// interpreter and the bypass validation tests use it to populate the
// hdr.* frame.
func (d *LayerDef) ReadHdr(h event.Header) (map[string]int64, error) {
	if h.Layer() != d.Name {
		return nil, fmt.Errorf("ir: header %T belongs to %q, not %q", h, h.Layer(), d.Name)
	}
	for i := range d.Hdrs {
		spec := &d.Hdrs[i]
		vals, ok := spec.Read(h, nil)
		if !ok {
			continue
		}
		fields := make(map[string]int64, len(spec.Fields)+1)
		fields["tag"] = spec.Tag
		for j, name := range spec.Fields {
			fields[name] = vals[j]
		}
		return fields, nil
	}
	return nil, fmt.Errorf("ir: no variant spec of layer %q matches header %s", d.Name, h.HdrString())
}

var (
	defMu sync.RWMutex
	defs  = map[string]*LayerDef{}
)

// RegisterDef installs a layer's a priori optimization inputs; layer
// packages call it from init alongside their component registration.
func RegisterDef(d LayerDef) {
	defMu.Lock()
	defer defMu.Unlock()
	if _, dup := defs[d.Name]; dup {
		panic(fmt.Sprintf("ir: duplicate definition for layer %q", d.Name))
	}
	dd := d
	defs[d.Name] = &dd
}

// LookupDef returns the definition for a component name.
func LookupDef(name string) (*LayerDef, error) {
	defMu.RLock()
	defer defMu.RUnlock()
	d, ok := defs[name]
	if !ok {
		return nil, fmt.Errorf("ir: no IR registered for layer %q (it cannot be optimized)", name)
	}
	return d, nil
}

// DefinedLayers lists components with registered IR, sorted.
func DefinedLayers() []string {
	defMu.RLock()
	defer defMu.RUnlock()
	out := make([]string, 0, len(defs))
	for n := range defs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
