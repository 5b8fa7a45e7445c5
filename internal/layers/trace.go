package layers

import (
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/obs"
	"ensemble/internal/transport"
)

// traceState is a diagnostic pass-through: it counts events by type and
// direction and keeps a bounded ring of recent events — insertable
// anywhere in a stack to watch the event flow at that boundary, the
// moral equivalent of Ensemble's tracing layers. Since PR 5 both halves
// are views over the obs substrate: the counts live in a private
// obs.Registry (one counter per direction×type, resolved to pointers at
// build time so observing stays map-free), and the ring is an obs flight
// track whose records Recent renders on demand.
type traceState struct {
	view *event.View

	// counts is indexed [dir][type]; the counters are owned by reg.
	counts [2][]*obs.Counter
	reg    *obs.Registry

	trk   *obs.Track
	total int64

	// Sink, when set, receives every passing event live.
	sink func(dir event.Dir, ev *event.Event)
}

// Trace is the component name.
const Trace = "trace"

const idTrace byte = 19

type traceHdr struct{}

func (traceHdr) Layer() string     { return Trace }
func (traceHdr) WireID() byte      { return idTrace }
func (traceHdr) HdrString() string { return "trace:NoHdr" }

const traceRingSize = 64

func init() {
	layer.Register(Trace, func(cfg layer.Config) layer.State {
		s := &traceState{
			view: cfg.View,
			reg:  obs.NewRegistry(),
			trk:  obs.NewRecorder(1, traceRingSize).Track(0),
		}
		for dir, name := range [2]string{"up", "dn"} {
			s.counts[dir] = make([]*obs.Counter, event.NumTypes())
			for t := range s.counts[dir] {
				s.counts[dir][t] = s.reg.Counter(fmt.Sprintf("trace/%s/%s", name, event.Type(t)))
			}
		}
		return s
	})
	transport.RegisterCodec(transport.HeaderCodec{
		Layer:  Trace,
		ID:     idTrace,
		Encode: func(event.Header, *transport.Writer) {},
		Decode: func(*transport.Reader) (event.Header, error) { return traceHdr{}, nil },
	})
}

func (s *traceState) Name() string { return Trace }

// Count reports how many events of a type passed in a direction.
func (s *traceState) Count(dir event.Dir, t event.Type) int64 {
	return s.counts[dir][t].Load()
}

// Metrics snapshots the layer's counters (named trace/<dir>/<type>).
func (s *traceState) Metrics() obs.Snapshot { return s.reg.Snapshot() }

// Recent renders the ring's surviving records, oldest first: the event's
// ordinal since stack birth, its direction, and its type.
func (s *traceState) Recent() []string {
	recs := s.trk.Ordered()
	out := make([]string, 0, len(recs))
	for _, r := range recs {
		out = append(out, fmt.Sprintf("%06d %s%s", r.Seq, event.Dir(r.Dir), r.Kind))
	}
	return out
}

// SetSink installs a live observer.
func (s *traceState) SetSink(fn func(dir event.Dir, ev *event.Event)) { s.sink = fn }

func (s *traceState) observe(dir event.Dir, ev *event.Event) {
	s.counts[dir][ev.Type].Add(1)
	s.total++
	s.trk.Record(s.total, obs.KindOf(ev.Type), uint8(dir), idTrace, s.total)
	if s.sink != nil {
		s.sink(dir, ev)
	}
}

func (s *traceState) HandleDn(ev *event.Event, snk layer.Sink) {
	s.observe(event.Dn, ev)
	if isData(ev) {
		ev.Msg.Push(traceHdr{})
	}
	snk.PassDn(ev)
}

func (s *traceState) HandleUp(ev *event.Event, snk layer.Sink) {
	s.observe(event.Up, ev)
	if isData(ev) {
		ev.Msg.Pop()
	}
	snk.PassUp(ev)
}
