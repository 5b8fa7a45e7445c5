// Package obs is the observability substrate: a metrics registry of
// named atomic counters and a per-member flight recorder of compact
// binary event records. Ensemble's answer to "what is the stack doing?"
// is tracing layers plus hardware counters (paper §4.2, Table 2); ours
// is this package — built so that turning it on costs nothing the
// zero-allocation bench gates defend: incrementing a counter is one
// atomic add, recording a flight event is one ring-slot write, and
// neither touches a map or allocates.
//
// The read path (Snapshot, Dump, the Chrome-trace exporter) is the
// opposite trade: it sorts, copies, and allocates freely, because it
// runs at barriers — after a run, at a test failure, from a CLI flag —
// never on the data path.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a named atomic counter (or gauge — Store overwrites). The
// zero value is ready to use. All methods are safe on a nil receiver so
// call sites can keep one unconditional increment whether or not
// observability is wired up.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Store sets the counter to v (gauge semantics).
func (c *Counter) Store(v int64) {
	if c == nil {
		return
	}
	c.v.Store(v)
}

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Window is a counter with a resettable reading window on top of its
// lifetime total: Add feeds both, Total reads the lifetime value,
// Window reads only what accumulated since the last ResetWindow. A
// member resets its dispatch-path windows at every view install, so a
// window reads the current view's mix while dashboards keep the
// lifetime totals; both views cost the same single atomic add per
// event. The zero value is ready; methods are nil-safe like Counter's.
type Window struct {
	c    Counter
	mark atomic.Int64
}

// Add increments the window (and the lifetime total) by d.
func (w *Window) Add(d int64) {
	if w == nil {
		return
	}
	w.c.Add(d)
}

// Inc increments by one.
func (w *Window) Inc() { w.Add(1) }

// Total returns the lifetime value.
func (w *Window) Total() int64 {
	if w == nil {
		return 0
	}
	return w.c.Load()
}

// Window returns the value accumulated since the last ResetWindow.
func (w *Window) Window() int64 {
	if w == nil {
		return 0
	}
	return w.c.Load() - w.mark.Load()
}

// ResetWindow starts a new window at the current total.
func (w *Window) ResetWindow() {
	if w == nil {
		return
	}
	w.mark.Store(w.c.Load())
}

// Metric is one named value in a snapshot.
type Metric struct {
	Name  string
	Value int64
}

// Snapshot is an ordered, deterministic reading of a registry: metrics
// sorted by name. Two snapshots of registries holding the same names
// and values render byte-identically.
type Snapshot []Metric

// Get returns the value of the named metric.
func (s Snapshot) Get(name string) (int64, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i].Value, true
	}
	return 0, false
}

// String renders the snapshot one "name value" line per metric, sorted.
func (s Snapshot) String() string {
	var b strings.Builder
	w := 0
	for _, m := range s {
		if len(m.Name) > w {
			w = len(m.Name)
		}
	}
	for _, m := range s {
		fmt.Fprintf(&b, "%-*s %d\n", w, m.Name, m.Value)
	}
	return b.String()
}

// entry is one registered metric: a Counter the registry owns a pointer
// to, an adopted read function over a counter some component already
// maintains, or a histogram (expanded into derived metrics at snapshot
// time — see histogram.go).
type entry struct {
	name string
	c    *Counter
	read func() int64
	h    *Histogram
}

// Registry is a set of named metrics. Registration (Counter, Func,
// Adopt) happens once, at wiring time, under a lock; the increment path
// holds raw *Counter pointers and never consults the registry again —
// no maps, no locks, no allocation on the write side.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]struct{}
	entries []entry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]struct{}{}}
}

// Counter registers and returns a fresh counter under name. Duplicate
// names panic: two components colliding on a metric name is a wiring
// bug, and silently sharing the counter would corrupt both readings.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.add(entry{name: name, c: c})
	return c
}

// Adopt registers an existing counter under name, for components that
// embed their counters in their own stats structs.
func (r *Registry) Adopt(name string, c *Counter) {
	r.add(entry{name: name, c: c})
}

// Func registers a read function under name, for components whose
// counters are plain (single-goroutine-owned) fields. The function is
// called at snapshot time only; callers must snapshot at a barrier
// unless the underlying read is itself race-safe.
func (r *Registry) Func(name string, read func() int64) {
	r.add(entry{name: name, read: read})
}

// AdoptWindow registers an existing windowed counter twice: its
// lifetime total under name and the current window under name+"/window".
func (r *Registry) AdoptWindow(name string, w *Window) {
	r.add(entry{name: name, read: w.Total})
	r.add(entry{name: name + "/window", read: w.Window})
}

func (r *Registry) add(e entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[e.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", e.name))
	}
	r.byName[e.name] = struct{}{}
	r.entries = append(r.entries, e)
}

// Snapshot reads every metric and returns them sorted by name.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	entries := r.entries[:len(r.entries):len(r.entries)]
	r.mu.Unlock()
	out := make(Snapshot, 0, len(entries))
	for _, e := range entries {
		if e.h != nil {
			// One bucket read per histogram; the five derived metrics
			// come from the same consistent snapshot.
			hs := e.h.Snapshot()
			out = append(out,
				Metric{Name: e.name + "/count", Value: hs.Count},
				Metric{Name: e.name + "/p50", Value: hs.P50},
				Metric{Name: e.name + "/p90", Value: hs.P90},
				Metric{Name: e.name + "/p99", Value: hs.P99},
				Metric{Name: e.name + "/max", Value: hs.Max},
			)
			continue
		}
		v := int64(0)
		if e.c != nil {
			v = e.c.Load()
		} else if e.read != nil {
			v = e.read()
		}
		out = append(out, Metric{Name: e.name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Scope is a name-prefixed view of a registry — the per-member shard of
// the metric namespace ("member3/" + name). Registration through a
// scope is exactly registration on the parent with the prefix applied.
type Scope struct {
	r      *Registry
	prefix string
}

// Scope returns a prefixed registrar.
func (r *Registry) Scope(prefix string) *Scope { return &Scope{r: r, prefix: prefix} }

// Counter registers a fresh counter under prefix+name.
func (s *Scope) Counter(name string) *Counter { return s.r.Counter(s.prefix + name) }

// Adopt registers an existing counter under prefix+name.
func (s *Scope) Adopt(name string, c *Counter) { s.r.Adopt(s.prefix+name, c) }

// Func registers a read function under prefix+name.
func (s *Scope) Func(name string, read func() int64) { s.r.Func(s.prefix+name, read) }

// AdoptWindow registers a windowed counter under prefix+name (and its
// window under prefix+name+"/window").
func (s *Scope) AdoptWindow(name string, w *Window) { s.r.AdoptWindow(s.prefix+name, w) }
