package opt

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"ensemble/internal/event"
	"ensemble/internal/ir"
	"ensemble/internal/layer"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// Engine is the stack runtime of Fig. 4: a full protocol stack, the
// transport glue around it, and the compiled bypasses generated from it
// (none for a plain member — NewStackEngine — which is IMP or FUNC in
// §4.2; MACH is NewEngine). Every application event and every arriving
// packet is routed by the run-time CCP check — bypass when the common
// case holds, original stack otherwise. The bypass and the stack share
// layer state, so the routing decision can differ event by event.
type Engine struct {
	Names []string
	Rank  int
	N     int

	stk    stack.Stack
	states []layer.State
	// wireIDs are the layers' header codec ids, top first: the shape a
	// full wire image must have (transport.UnmarshalFor).
	wireIDs []byte

	dnCast *compiledDnPath
	dnSend *compiledDnPath
	// up holds the compiled up paths, one per wire signature that can
	// arrive: a handful, found by scanning for the identifier.
	up []*compiledUpPath

	// ctrl are the sender-side control recognizers probed at the stack's
	// net exit.
	ctrl []*ctrlMatcher
	// ctrlVary and ctrlWire are the recognizer's reusable buffers. The
	// net exit is never re-entered while a recognizer runs (emission is
	// asynchronous), so one set per engine suffices — same discipline as
	// wbuf.
	ctrlVary []int64
	ctrlWire []byte

	// SendWire transmits a marshaled packet: cast fans out, send goes to
	// the member at rank dst. The wire image lives in a reused buffer and
	// is only valid during the callback — a consumer that defers delivery
	// (or delivers synchronously in a way that can trigger further sends)
	// must copy it first.
	SendWire func(cast bool, dst int, wire []byte)
	// Deliver hands an application payload up.
	Deliver func(origin int, payload []byte, cast bool)
	// Control receives the non-data events that exit the top of the
	// fallback stack (views, suspicions, block requests, stability) so a
	// group runtime can run its membership machinery around the engine.
	// The event is freed after the callback returns.
	Control func(*event.Event)

	// MarkDnTransport and MarkUpStack are optional instrumentation hooks
	// at the stack/transport boundary, used by the code-latency
	// benchmarks to attribute time the way Table 1 does: MarkDnTransport
	// fires when an application message leaves the compiled path or the
	// stack's net exit, before it is encoded; MarkUpStack once an
	// arrival, compressed or full, has decoded.
	MarkDnTransport func()
	MarkUpStack     func()

	// OnRoute, when set, observes every routing decision the engine
	// makes: the winning path's identity (PathFullStack when the event
	// fell through to the interpreted stack). core.Member installs its
	// per-path metrics and flight-record hook here — one counter add per
	// event. Sender-side control recognition is not a routing decision
	// (the event already traversed the stack) and reports only through
	// EngineStats. Undecodable packets route nowhere and are not
	// reported.
	OnRoute func(up bool, pid PathID)

	// ArrivalsBorrowed says the bytes handed to Packet are recycled once
	// it returns (an in-process harness's pump), not arrival bytes nobody
	// rewrites (a stable-mode link): the events built from them are then
	// borrowed (event.Event.Borrowed), and the layers that hold messages
	// copy them.
	ArrivalsBorrowed bool

	wbuf  transport.Writer
	stats EngineStats

	// scr is the per-engine scratch frame reused across invocations (the
	// engine is single-threaded, like an Ensemble stack): GC work on the
	// fast path is what §4's first optimization removes. Taken by
	// ownership transfer so a re-entrant invocation (an application
	// callback casting in response to a delivery) falls back to a fresh
	// frame instead of clobbering the outer one.
	scr *scratch
}

// scratch bundles every reusable buffer one bypass invocation needs:
// the evaluation context itself (ctx — compiled expressions take it
// through an indirect call, which would force a stack-local copy to
// escape on every invocation), update values (tmp), varying wire
// fields (vary), the effect-argument and encoded-header arenas (args,
// himg — deferred effects carve capped subslices that stay valid until
// the effects run at the end of the invocation), the bounce copy's
// headers (hdrs), a hold's arguments (hold), the deferred effect list
// (pend), and the compressed wire image (wire). The header-field staging
// buffer lives on as ctx.hv across invocations.
type scratch struct {
	ctx  rtCtx
	tmp  []int64
	vary []int64
	args []int64
	himg transport.Writer
	hdrs []event.Header
	hold []int64
	pend []pendingEffect
	wire []byte
}

func (e *Engine) takeScratch() *scratch {
	s := e.scr
	e.scr = nil
	if s == nil {
		s = new(scratch)
	}
	return s
}

// putScratch returns a frame for reuse. Header and effect slots are
// cleared: ownership of the header values has moved to events or
// effects by now, and stale pointers must not keep them reachable.
func (e *Engine) putScratch(s *scratch) {
	s.ctx = rtCtx{hv: s.ctx.hv[:0]}
	s.tmp, s.vary, s.args, s.hold = s.tmp[:0], s.vary[:0], s.args[:0], s.hold[:0]
	s.himg.Reset()
	for i := range s.hdrs {
		s.hdrs[i] = nil
	}
	s.hdrs = s.hdrs[:0]
	for i := range s.pend {
		s.pend[i] = pendingEffect{}
	}
	s.pend = s.pend[:0]
	s.wire = s.wire[:0]
	e.scr = s
}

// pendingEffect is a deferred effect invocation captured pre-write.
type pendingEffect struct {
	run  func(ir.EffectCtx)
	ectx ir.EffectCtx
}

// capture evaluates the effects' arguments and encodes the header stacks
// they buffer, in the read phase: both are pre-state values. The capped
// subslices it carves from the arenas stay readable even if a later
// append regrows an arena — values already written never move. The
// effects join those already pending in s; all of them are returned.
func (s *scratch) capture(effects []compiledEffect, ctx *rtCtx, payload []byte, appl bool) []pendingEffect {
	pend := s.pend
	for _, eff := range effects {
		argStart := len(s.args)
		for _, a := range eff.args {
			s.args = append(s.args, a(ctx))
		}
		args := s.args[argStart:len(s.args):len(s.args)]
		imgStart := s.himg.HeaderLen()
		for _, p := range eff.img {
			if p.hdr == nil {
				s.himg.Raw(p.fixed)
				continue
			}
			h := p.hdr.materialize(ctx)
			if err := transport.EncodeHeader(h, &s.himg); err != nil {
				panic(fmt.Sprintf("opt: encoding a buffered header: %v", err))
			}
			event.FreeHeader(h)
		}
		img := s.himg.Header()
		pend = append(pend, pendingEffect{run: eff.run, ectx: ir.EffectCtx{
			Args: args, Payload: payload, ApplMsg: appl,
			Hdrs: img[imgStart:len(img):len(img)], NHdrs: eff.nhdrs,
		}})
	}
	s.pend = pend
	return pend
}

// EngineStats counts bypass routing decisions. Every event the engine
// routes lands on exactly one of DnBypass, DnFull, UpBypass and UpFull.
type EngineStats struct {
	// DnBypass counts casts and sends that took a fully compiled down
	// path, DnFull those the interpreted stack took from the top.
	DnBypass, DnFull int64
	// DnPartial always reads 0: a cast's self-delivery copy is never
	// handed to the stack part-way (a copy whose common case fails sends
	// the whole cast through the stack, DnFull). It stays for readers of
	// the counter.
	DnPartial int64
	// UpBypass counts compressed arrivals whose path's whole common case
	// held and that compiled code carried to the end. UpFull counts
	// arrivals the stack interpreted from the bottom: full wire images,
	// and compressed ones whose common case failed (or that have none),
	// rebuilt by the generated uncompressor — Uncompressed counts the
	// latter alone.
	UpBypass, UpFull int64
	Uncompressed     int64
	Undecodable      int64
	// Parked counts messages compiled code parked in a layer's hold (an
	// arrival, or a cast's self-delivery copy) and the hold kept; Released
	// those a compiled release loop handed on and delivered. Messages the
	// stack parks and releases are not counted.
	Parked, Released int64
	// CtrlCompressed counts control messages recognized at the stack's
	// net exit and emitted compressed; CtrlFull counts stack-exit
	// messages no recognizer matched (full marshal).
	CtrlCompressed, CtrlFull int64
	// PathHits and PathMisses are the per-path dispatch counters:
	// Hits[p] counts events routed to path p (PathFullStack hits are
	// interpreter fallbacks) and, for a control recognizer, messages it
	// emitted compressed; Misses[p] counts events that probed p's
	// discriminator and failed. The engine lives for one view, so these
	// are also per-view counts.
	PathHits, PathMisses [NumPaths]int64
}

// Add returns the sum of two sets of counters: a member that rebuilds
// its engine at every view keeps the lifetime totals this way.
func (s EngineStats) Add(o EngineStats) EngineStats {
	s.DnBypass += o.DnBypass
	s.DnFull += o.DnFull
	s.DnPartial += o.DnPartial
	s.UpBypass += o.UpBypass
	s.UpFull += o.UpFull
	s.Uncompressed += o.Uncompressed
	s.Undecodable += o.Undecodable
	s.Parked += o.Parked
	s.Released += o.Released
	s.CtrlCompressed += o.CtrlCompressed
	s.CtrlFull += o.CtrlFull
	for p := range s.PathHits {
		s.PathHits[p] += o.PathHits[p]
		s.PathMisses[p] += o.PathMisses[p]
	}
	return s
}

// compiledDnPath is one compiled down-going bypass.
type compiledDnPath struct {
	th      *StackTheorem
	sig     WireSig
	id      uint16
	ccp     []cexpr
	writes  []compiledWrite
	varying []cexpr // values of the varying wire fields, in wire order
	effects []compiledEffect
	self    bool
	pid     PathID

	// park parks the self-delivery copy when the bounce ends in a
	// parking layer; bounceHdrs materializes the headers the parked copy
	// keeps, those of the layers above the parking one.
	bounceHdrs []compiledHdr
	park       *compiledPark
}

// compiledUpPath is one compiled up-going bypass, for one wire
// signature: it runs whole when its CCP holds, and otherwise the
// arrival takes the stack. A signature without a common case has the
// CCP false.
type compiledUpPath struct {
	th    *StackTheorem
	sig   WireSig
	id    uint16
	nvary int
	cast  bool
	pid   PathID
	// consumed marks a path that absorbs the arrival below the
	// application (a control path, a park) instead of delivering it.
	consumed bool
	// appl is the event's application-payload flag: set unless the
	// message originated mid-stack (its signature starts below the top).
	appl    bool
	ccp     []cexpr
	writes  []compiledWrite
	effects []compiledEffect
	// hdrs rebuilds the signature's header stack, top first: the
	// generated uncompression function (§4.1.3) in front of the stack,
	// and the headers a parked arrival keeps.
	hdrs []compiledHdr
	// park parks a whole path's arrival; release is a whole consuming
	// path's release loop.
	park    *compiledPark
	release *compiledRelease
}

// NewStackEngine builds the plain configuration for one member (IMP or
// FUNC in §4.2): the runtime NewEngine wraps its bypasses around — the
// stack in the given execution model, marshaled at its net exit and
// decoded and shape-checked on arrival — with no bypass derived, so
// every event takes the stack.
func NewStackEngine(names []string, cfg layer.Config, mode stack.Mode) (*Engine, error) {
	states, err := stack.BuildStates(names, cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		Names:  names,
		Rank:   cfg.View.Rank,
		N:      cfg.View.N(),
		states: states,
	}
	// By the states' names, not the component names: a wrapper component
	// (the benchmark's timing shims) is registered under another name
	// than the layer whose headers it pushes.
	layerNames := make([]string, len(states))
	for i, st := range states {
		layerNames[i] = st.Name()
	}
	e.wireIDs = transport.StackIDs(layerNames)
	e.stk = stack.FromStates(states, mode, stack.Callbacks{App: e.appEvent, Net: e.netEvent})
	return e, nil
}

// NewEngine builds the optimized configuration for one member: the
// runtime of NewStackEngine plus every bypass the optimizer can derive
// for this stack. Derivation failures are not errors: paths without a
// bypass simply always use the stack.
func NewEngine(names []string, cfg layer.Config, mode stack.Mode) (*Engine, error) {
	e, err := NewStackEngine(names, cfg, mode)
	if err != nil {
		return nil, err
	}
	if err := e.derive(); err != nil {
		return nil, err
	}
	return e, nil
}

// derive composes, compiles and installs the engine's bypasses: the down
// paths of this member, the up path of every wire signature any member
// can send, and this member's control recognizers.
func (e *Engine) derive() error {
	names := e.Names
	anyStates := make([]any, len(e.states))
	for i, s := range e.states {
		anyStates[i] = s
	}
	comp, err := newCompiler(names, anyStates, e.Rank, e.N)
	if err != nil {
		return err
	}

	// This member's own down theorems, compiled into its down bypasses.
	// nil where a path has no bypass (every such event takes the stack).
	own := map[ir.PathKey]*StackTheorem{}
	for _, path := range []ir.PathKey{ir.DnCast, ir.DnSend} {
		if th, err := ComposeDn(names, path, e.Rank, e.N); err == nil {
			own[path] = th
		}
	}
	e.dnCast = e.compileTheorem(comp, own[ir.DnCast], PathDnCast)
	e.dnSend = e.compileTheorem(comp, own[ir.DnSend], PathDnSend)

	// Up paths: one per wire signature any member's down bypass can
	// produce, deduplicated by identifier.
	sent := sendable(names, e.N)
	for _, path := range []ir.PathKey{ir.DnCast, ir.DnSend} {
		for _, sig := range sent.dn[path] {
			if sig == nil || e.upPath(sig.ID()) != nil {
				continue
			}
			upPath := ir.PathKey{Dir: event.Up, Kind: path.Kind}
			upTh, err := ComposeUp(names, upPath, e.Rank, e.N, *sig)
			if err != nil {
				continue
			}
			cp, err := e.compileUp(comp, upTh, *sig)
			if err != nil {
				return fmt.Errorf("opt: compiling up bypass: %w", err)
			}
			cp.pid = PathUpSend
			if cp.cast {
				cp.pid = PathUpCast
			}
			e.up = append(e.up, cp)
		}
	}

	// Control paths: the signatures of messages that originate mid-stack
	// (acknowledgments, retransmissions, order announcements), one set per
	// emitting rank, deduplicated by identifier like the data set. The
	// receive side is an ordinary compiled up path; the send side is a
	// structural recognizer at the stack's net exit for this member's own
	// signatures.
	for r, specs := range sent.ctrl {
		for _, cs := range specs {
			if e.upPath(cs.sig.ID()) == nil {
				upTh, err := ComposeUp(names, ir.PathKey{Dir: event.Up, Kind: cs.sig.Path.Kind}, e.Rank, e.N, cs.sig)
				if err != nil {
					continue
				}
				cp, err := e.compileUp(comp, upTh, cs.sig)
				if err != nil {
					return fmt.Errorf("opt: compiling control up bypass: %w", err)
				}
				cp.pid = cs.upPid
				e.up = append(e.up, cp)
			}
			if r == e.Rank {
				m, err := newCtrlMatcher(cs)
				if err != nil {
					return fmt.Errorf("opt: control recognizer: %w", err)
				}
				e.ctrl = append(e.ctrl, m)
			}
		}
	}
	return nil
}

// sendableSigs is what the members of a view can send compressed: each
// rank's data cast and send signatures (nil where that path has no
// bypass) and its control messages' signatures.
type sendableSigs struct {
	dn   map[ir.PathKey][]*WireSig
	ctrl [][]ctrlSpec
}

// sendableMemo holds sendable's results by stack and view size.
var sendableMemo sync.Map

// sendable derives what the members of a view of n can send. It is a
// function of the registered IR, the stack and n alone, which every
// member of a view needs alike, so a process derives it once: the
// values are shared and must not be modified.
func sendable(names []string, n int) *sendableSigs {
	key := fmt.Sprintf("%d/%s", n, strings.Join(names, "|"))
	if v, ok := sendableMemo.Load(key); ok {
		return v.(*sendableSigs)
	}
	s := &sendableSigs{dn: map[ir.PathKey][]*WireSig{}, ctrl: make([][]ctrlSpec, n)}
	for _, path := range []ir.PathKey{ir.DnCast, ir.DnSend} {
		s.dn[path] = make([]*WireSig, n)
		for r := range n {
			if th, err := ComposeDn(names, path, r, n); err == nil {
				sig := SignatureOf(th)
				s.dn[path][r] = &sig
			}
		}
	}
	for r := range n {
		s.ctrl[r] = controlSigs(names, r, s.dn[ir.DnSend][r])
	}
	v, _ := sendableMemo.LoadOrStore(key, s)
	return v.(*sendableSigs)
}

// all lists every signature the members can send, data and control,
// once each.
func (s *sendableSigs) all() map[uint16]WireSig {
	sigs := map[uint16]WireSig{}
	for r := range s.ctrl {
		for _, path := range []ir.PathKey{ir.DnCast, ir.DnSend} {
			if sig := s.dn[path][r]; sig != nil {
				sigs[sig.ID()] = *sig
			}
		}
		for _, cs := range s.ctrl[r] {
			sigs[cs.sig.ID()] = cs.sig
		}
	}
	return sigs
}

// compileTheorem compiles a composed down-path theorem; nil for none.
func (e *Engine) compileTheorem(comp *compiler, th *StackTheorem, pid PathID) *compiledDnPath {
	if th == nil {
		return nil
	}
	sig := SignatureOf(th)
	comp.setVarying(nil)
	cp := &compiledDnPath{th: th, sig: sig, id: sig.ID(), self: th.SelfDeliver, pid: pid}
	for _, conj := range th.CCP {
		ce, err := comp.compile(conj)
		if err != nil {
			return nil
		}
		cp.ccp = append(cp.ccp, ce)
	}
	for _, u := range th.Updates {
		w, err := comp.compileWrite(u)
		if err != nil {
			return nil
		}
		cp.writes = append(cp.writes, w)
	}
	// Varying wire fields: evaluate the push-time expressions.
	byKey := map[string]ir.Expr{}
	for _, h := range th.Headers {
		for _, fv := range h.Fields {
			byKey[ir.Key(ir.QHdr{Layer: h.Layer, Field: fv.Name})] = fv.Val
		}
	}
	for _, q := range sig.Varying() {
		ce, err := comp.compile(byKey[ir.Key(q)])
		if err != nil {
			return nil
		}
		cp.varying = append(cp.varying, ce)
	}
	for _, eff := range th.Effects {
		ce, err := comp.compileEffect(eff, th.Headers)
		if err != nil {
			return nil
		}
		cp.effects = append(cp.effects, ce)
	}
	if th.Park != nil {
		p, err := comp.compilePark(th.Park)
		if err != nil {
			return nil
		}
		cp.park = p
		for _, h := range th.Headers[:p.hdrs] {
			ch, err := comp.compileHdr(h)
			if err != nil {
				return nil
			}
			cp.bounceHdrs = append(cp.bounceHdrs, ch)
		}
	}
	return cp
}

func (e *Engine) compileUp(comp *compiler, th *StackTheorem, sig WireSig) (*compiledUpPath, error) {
	vary := sig.Varying()
	comp.setVarying(vary)
	defer comp.setVarying(nil)
	cp := &compiledUpPath{
		th: th, sig: sig, id: sig.ID(), nvary: len(vary), cast: th.Path.Kind == event.ECast,
		consumed: th.Consumed, appl: len(sig.Entries) == len(th.Names),
	}
	for _, conj := range th.CCP {
		ce, err := comp.compile(conj)
		if err != nil {
			return nil, err
		}
		cp.ccp = append(cp.ccp, ce)
	}
	for _, u := range th.Updates {
		w, err := comp.compileWrite(u)
		if err != nil {
			return nil, err
		}
		cp.writes = append(cp.writes, w)
	}
	for _, eff := range th.Effects {
		ce, err := comp.compileEffect(eff, th.Headers)
		if err != nil {
			return nil, err
		}
		cp.effects = append(cp.effects, ce)
	}
	for _, h := range th.Headers {
		ch, err := comp.compileHdr(h)
		if err != nil {
			return nil, err
		}
		cp.hdrs = append(cp.hdrs, ch)
	}
	var err error
	if th.Park != nil {
		if cp.park, err = comp.compilePark(th.Park); err != nil {
			return nil, err
		}
	}
	if th.Release != nil {
		if cp.release, err = comp.compileRelease(th.Release); err != nil {
			return nil, err
		}
	}
	return cp, nil
}

// upPath finds the compiled up path of a wire signature identifier.
func (e *Engine) upPath(id uint16) *compiledUpPath {
	for _, cp := range e.up {
		if cp.id == id {
			return cp
		}
	}
	return nil
}

// Stats returns a snapshot of the routing counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// route reports one routing decision to the OnRoute hook.
func (e *Engine) route(up bool, pid PathID) {
	if e.OnRoute != nil {
		e.OnRoute(up, pid)
	}
}

// States exposes the shared layer states.
func (e *Engine) States() []layer.State { return e.states }

// Stack exposes the fallback stack (for timers and initialization).
func (e *Engine) Stack() stack.Stack { return e.stk }

// appEvent and netEvent are the full stack's exits.
func (e *Engine) appEvent(ev *event.Event) {
	switch ev.Type {
	case event.ECast, event.ESend:
		if ev.ApplMsg && e.Deliver != nil {
			e.Deliver(ev.Peer, ev.Msg.Payload, ev.Type == event.ECast)
		}
	default:
		if e.Control != nil {
			e.Control(ev)
		}
	}
}

// Submit injects a non-data event (leave requests and the like) at the
// top of the fallback stack.
func (e *Engine) Submit(ev *event.Event) { e.stk.SubmitDn(ev) }

func (e *Engine) netEvent(ev *event.Event) {
	switch ev.Type {
	case event.ECast, event.ESend:
	default:
		return
	}
	if ev.ApplMsg && e.MarkDnTransport != nil {
		e.MarkDnTransport()
	}
	// Control recognition: match the exiting header stack against this
	// member's control signatures of the event's kind and
	// emit compressed on a hit. The depth check and the probe entry's type
	// assertion reject data messages without allocating, so the data hot
	// path pays a comparison or two per recognizer. The stack still owns
	// ev.
	cast, probed := ev.Type == event.ECast, false
	for _, m := range e.ctrl {
		if m.cast != cast {
			continue
		}
		probed = true
		vary, ok := m.match(ev.Msg.Headers, e.ctrlVary[:0])
		e.ctrlVary = vary
		if ok {
			e.stats.CtrlCompressed++
			e.stats.PathHits[m.pid]++
			wire := append(e.ctrlWire[:0], transport.WireCompressed, byte(m.id), byte(m.id>>8))
			wire = binary.AppendUvarint(wire, uint64(e.Rank))
			for _, v := range vary {
				wire = binary.AppendVarint(wire, v)
			}
			wire = append(wire, ev.Msg.Payload...)
			e.ctrlWire = wire
			if e.SendWire != nil {
				e.SendWire(cast, ev.Peer, wire)
			}
			return
		}
		e.stats.PathMisses[m.pid]++
	}
	if probed {
		e.stats.CtrlFull++
	}
	if err := transport.Marshal(ev, e.Rank, &e.wbuf); err != nil {
		panic(fmt.Sprintf("opt: marshal: %v", err))
	}
	if e.SendWire != nil {
		// Seal reuses the writer's buffer: the wire is valid only during
		// the callback (consumers copy before triggering further sends).
		e.SendWire(ev.Type == event.ECast, ev.Peer, e.wbuf.Seal())
	}
}

// CheckCCP evaluates a down path's common-case predicate without running
// anything — the cost the paper reports as ~3 µs for the 10-layer stack.
func (e *Engine) CheckCCP(cast bool, dst int, payloadLen int) bool {
	cp := e.dnSend
	if cast {
		cp = e.dnCast
	}
	if cp == nil {
		return false
	}
	s := e.takeScratch()
	s.ctx.peer, s.ctx.length = int64(dst), int64(payloadLen)
	ok := evalCCP(cp.ccp, &s.ctx)
	e.putScratch(s)
	return ok
}

func evalCCP(ccp []cexpr, ctx *rtCtx) bool {
	for _, c := range ccp {
		if c(ctx) == 0 {
			return false
		}
	}
	return true
}

// Cast multicasts an application payload: through the compiled cast
// path when its wire conjuncts hold, the full stack otherwise.
func (e *Engine) Cast(payload []byte) {
	if !e.down(e.dnCast, true, 0, payload) {
		e.stk.SubmitDn(event.CastEv(payload))
	}
}

// Send transmits an application payload point-to-point.
func (e *Engine) Send(dst int, payload []byte) {
	if !e.down(e.dnSend, false, dst, payload) {
		e.stk.SubmitDn(event.SendEv(dst, payload))
	}
}

// down routes one application payload with one evaluation of a compiled
// down path's whole CCP, its self-delivery copy's conjuncts included:
// it holds and the path runs, or false means the caller submits the
// payload to the stack.
func (e *Engine) down(cp *compiledDnPath, cast bool, dst int, payload []byte) bool {
	if cp != nil {
		// The context lives in the pooled scratch frame: compiled
		// expressions receive it through indirect calls, so a stack-local
		// would escape (one heap allocation per event).
		s := e.takeScratch()
		ctx := &s.ctx
		ctx.peer, ctx.length = int64(dst), int64(len(payload))
		if cast {
			ctx.peer = int64(e.Rank)
		}
		if evalCCP(cp.ccp, ctx) {
			e.stats.DnBypass++
			e.stats.PathHits[cp.pid]++
			e.route(false, cp.pid)
			e.runDn(cp, ctx, cast, dst, payload, s)
			e.putScratch(s)
			return true
		}
		e.putScratch(s)
		e.stats.PathMisses[cp.pid]++
	}
	e.stats.DnFull++
	e.stats.PathHits[PathFullStack]++
	e.route(false, PathFullStack)
	return false
}

// Compressed wire format:
//
//	magic    byte   = transport.WireCompressed
//	id       uint16 little-endian (the wire signature hash)
//	sender   uvarint (rank)
//	varying  n × varint (field count fixed by the signature)
//	payload  rest
func (e *Engine) runDn(cp *compiledDnPath, ctx *rtCtx, cast bool, dst int, payload []byte, s *scratch) {
	// Read phase: everything is a pre-state expression, so all reads —
	// update values, varying wire fields, effect arguments and captured
	// headers — happen before any write. The caller owns the scratch
	// frame (ctx is embedded in it) and returns it when we're done; a
	// re-entrant invocation from an application callback takes a fresh
	// frame instead of clobbering this one.
	if cap(s.tmp) < len(cp.writes) {
		s.tmp = make([]int64, len(cp.writes))
	}
	vals := s.tmp[:len(cp.writes)]
	for i, w := range cp.writes {
		vals[i] = w.eval(ctx)
	}
	if cap(s.vary) < len(cp.varying) {
		s.vary = make([]int64, len(cp.varying))
	}
	varyVals := s.vary[:len(cp.varying)]
	for i, v := range cp.varying {
		varyVals[i] = v(ctx)
	}
	// A parked copy's headers are pre-state values too, so they
	// materialize here — those above the parking layer — and the copy
	// event takes them over below; so are the hold's arguments.
	if cp.park != nil {
		s.hold = evalInto(s.hold[:0], cp.park.args, ctx)
		for i := range cp.bounceHdrs {
			s.hdrs = append(s.hdrs, cp.bounceHdrs[i].materialize(ctx))
		}
	}
	pend := s.capture(cp.effects, ctx, payload, true)
	// Write phase.
	for i, w := range cp.writes {
		w.apply(vals[i], ctx)
	}
	// The local copy surfaces before the packet reaches the wire — the
	// same order the full stack's scheduler produces.
	switch {
	case cp.park != nil:
		// The header values captured in the read phase move into the copy
		// event's own storage (the event takes ownership and frees them).
		copyEv := upEvent(true, e.Rank, true, payload, true)
		copyEv.Msg.Headers = append(copyEv.Msg.Headers[:0], s.hdrs...)
		if cp.park.park(s.hold, copyEv) {
			e.stats.Parked++
		}
	case cp.self && e.Deliver != nil:
		e.Deliver(e.Rank, payload, true)
	}
	// Transport: the compressed image is the stack identifier plus only
	// the varying header fields (§4.1.3), built in the frame's reused
	// buffer — valid only during the SendWire callback.
	if e.MarkDnTransport != nil {
		e.MarkDnTransport()
	}
	wire := append(s.wire[:0], transport.WireCompressed, byte(cp.id), byte(cp.id>>8))
	wire = binary.AppendUvarint(wire, uint64(e.Rank))
	for _, v := range varyVals {
		wire = binary.AppendVarint(wire, v)
	}
	wire = append(wire, payload...)
	s.wire = wire
	if e.SendWire != nil {
		e.SendWire(cast, dst, wire)
	}
	// The deferred non-critical work (buffering) runs last, off the
	// critical path (§4, item 3).
	for _, p := range pend {
		p.run(p.ectx)
	}
}

// upEvent allocates an up-going data event with an empty header stack.
func upEvent(cast bool, origin int, appl bool, payload []byte, borrowed bool) *event.Event {
	ev := event.Alloc()
	ev.Dir, ev.Type, ev.Peer, ev.ApplMsg, ev.Borrowed = event.Up, event.ESend, origin, appl, borrowed
	if cast {
		ev.Type = event.ECast
	}
	ev.Msg.Payload = payload
	return ev
}

// Packet routes an arriving wire image. A full image goes to the stack.
// A compressed one names its signature's compiled up path: when the
// path's whole CCP holds, its compiled code runs to the end — delivers,
// parks, releases or consumes; otherwise the generated uncompressor
// rebuilds the signature's headers in front of the whole stack
// (§4.1.3). Packet reports whether the arrival decoded: an image that
// did not is dropped (EngineStats.Undecodable) for the caller to count.
func (e *Engine) Packet(data []byte) bool {
	if len(data) == 0 {
		e.stats.Undecodable++
		return false
	}
	if data[0] != transport.WireCompressed {
		ev, err := transport.UnmarshalFor(data, e.wireIDs)
		if err != nil {
			e.stats.Undecodable++
			return false
		}
		ev.Borrowed = e.ArrivalsBorrowed
		// The claimed origin indexes per-member state throughout the
		// stack: it must be a rank of this view.
		if ev.Peer < 0 || ev.Peer >= e.N {
			e.stats.Undecodable++
			event.Free(ev)
			return false
		}
		if e.MarkUpStack != nil {
			e.MarkUpStack()
		}
		e.stats.UpFull++
		e.stats.PathHits[PathFullStack]++
		e.route(true, PathFullStack)
		e.stk.DeliverUp(ev)
		return true
	}
	if len(data) < 3 {
		e.stats.Undecodable++
		return false
	}
	id := uint16(data[1]) | uint16(data[2])<<8
	cp := e.upPath(id)
	if cp == nil {
		e.stats.Undecodable++
		return false
	}
	rest := data[3:]
	sender, n := binary.Uvarint(rest)
	if n <= 0 || sender >= uint64(e.N) {
		// A sender rank outside the view would index per-member state
		// out of range inside the compiled common-case predicate.
		e.stats.Undecodable++
		return false
	}
	rest = rest[n:]
	s := e.takeScratch()
	ctx := &s.ctx
	ctx.peer = int64(sender)
	if cap(s.vary) < cp.nvary {
		s.vary = make([]int64, cp.nvary)
	}
	ctx.vary = s.vary[:cp.nvary]
	for i := 0; i < cp.nvary; i++ {
		v, n := binary.Varint(rest)
		if n <= 0 {
			e.stats.Undecodable++
			e.putScratch(s)
			return false
		}
		ctx.vary[i] = v
		rest = rest[n:]
	}
	payload := rest
	ctx.length = int64(len(payload))
	if e.MarkUpStack != nil {
		e.MarkUpStack()
	}

	if evalCCP(cp.ccp, ctx) {
		e.stats.UpBypass++
		e.stats.PathHits[cp.pid]++
		e.route(true, cp.pid)
		e.runUp(cp, ctx, payload, s)
		switch {
		case cp.park != nil:
			e.park(cp, ctx, int(sender), payload, s)
		case cp.release != nil:
			e.release(cp.release, ctx, s)
		case !cp.consumed && e.Deliver != nil:
			e.Deliver(int(sender), payload, cp.cast)
		}
		for i := range s.pend {
			s.pend[i].run(s.pend[i].ectx)
		}
		e.putScratch(s)
		return true
	}
	e.stats.PathMisses[cp.pid]++
	e.stats.Uncompressed++
	e.stats.UpFull++
	e.stats.PathHits[PathFullStack]++
	e.route(true, PathFullStack)
	ev := upEvent(cp.cast, int(sender), cp.appl, payload, e.ArrivalsBorrowed)
	for i := range cp.hdrs {
		ev.Msg.Headers = append(ev.Msg.Headers, cp.hdrs[i].materialize(ctx))
	}
	// The frame is free again before the stack runs, for whatever the
	// application casts from inside a delivery.
	e.putScratch(s)
	e.stk.DeliverUp(ev)
	return true
}

// runUp runs an up path's compiled code: all reads first (update
// values, effect arguments), then the writes. The captured effects are
// left pending in s. It shares the caller's scratch frame: the fields
// Packet used (vary, hv) are disjoint from the ones used here.
func (e *Engine) runUp(cp *compiledUpPath, ctx *rtCtx, payload []byte, s *scratch) {
	if cap(s.tmp) < len(cp.writes) {
		s.tmp = make([]int64, len(cp.writes))
	}
	vals := s.tmp[:len(cp.writes)]
	for i, w := range cp.writes {
		vals[i] = w.eval(ctx)
	}
	s.capture(cp.effects, ctx, payload, cp.appl)
	for i, w := range cp.writes {
		w.apply(vals[i], ctx)
	}
}

// park parks a whole path's arrival: the event the parking layer would
// have been handed, with the headers of the layers above it.
func (e *Engine) park(cp *compiledUpPath, ctx *rtCtx, sender int, payload []byte, s *scratch) {
	ev := upEvent(cp.cast, sender, cp.appl, payload, e.ArrivalsBorrowed)
	for i := range cp.hdrs[:cp.park.hdrs] {
		ev.Msg.Headers = append(ev.Msg.Headers, cp.hdrs[i].materialize(ctx))
	}
	s.hold = evalInto(s.hold[:0], cp.park.args, ctx)
	if cp.park.park(s.hold, ev) {
		e.stats.Parked++
	}
}

// release runs a release loop: each parked message it takes runs the
// compiled code of the layers above — reads, then writes — and is
// delivered. The frame's reads stay valid across deliveries: an
// application that casts from inside one takes a fresh frame.
func (e *Engine) release(r *compiledRelease, ctx *rtCtx, s *scratch) {
	s.hold = evalInto(s.hold[:0], r.args, ctx)
	if cap(s.tmp) < len(r.writes) {
		s.tmp = make([]int64, len(r.writes))
	}
	vals := s.tmp[:len(r.writes)]
	for n := r.count(ctx); n > 0; n-- {
		ev := r.take(s.hold)
		if ev == nil {
			return
		}
		for i, w := range r.writes {
			vals[i] = w.eval(ctx)
		}
		for i, w := range r.writes {
			w.apply(vals[i], ctx)
		}
		e.stats.Released++
		if ev.ApplMsg && e.Deliver != nil {
			e.Deliver(ev.Peer, ev.Msg.Payload, ev.Type == event.ECast)
		}
		event.Free(ev)
	}
}

// Timer drives the housekeeping sweep through the full stack (timers are
// never a bypass path).
func (e *Engine) Timer(now int64) {
	e.stk.DeliverUp(event.TimerEv(now))
}

// Init pushes the initialization event through the stack.
func (e *Engine) Init(v *event.View) {
	e.stk.SubmitDn(event.InitEv(v))
}

// Theorems returns the composed stack theorems backing this engine's
// bypasses, for inspection and documentation.
func (e *Engine) Theorems() []*StackTheorem {
	var out []*StackTheorem
	if e.dnCast != nil {
		out = append(out, e.dnCast.th)
	}
	if e.dnSend != nil {
		out = append(out, e.dnSend.th)
	}
	for _, up := range e.up {
		out = append(out, up.th)
	}
	return out
}
