// Package event defines the event objects that Ensemble micro-protocol
// layers exchange. The interface is event-driven: certain event types
// travel down the stack (e.g. send and cast requests), while others (such
// as message deliveries) travel up, exactly as in the Ensemble
// architecture described in the paper (SOSP '99, §2).
package event

import (
	"fmt"
	"strings"
	"sync"
)

// Dir is the direction an event travels through a protocol stack.
type Dir int8

const (
	// Up events travel from the network toward the application
	// (deliveries, view notifications, failure suspicions).
	Up Dir = iota
	// Dn events travel from the application toward the network
	// (send and cast requests, acknowledgment emissions).
	Dn
)

// String returns "Up" or "Dn".
func (d Dir) String() string {
	if d == Up {
		return "Up"
	}
	return "Dn"
}

// Type enumerates the event types used by the micro-protocol library.
// This is the subset of Ensemble's event vocabulary required by the
// stacks the paper evaluates, plus the membership machinery.
type Type int8

const (
	// EInit initializes a stack for a view. Travels down at stack birth.
	EInit Type = iota
	// ECast is a multicast message: a transmit request going down, a
	// delivery going up.
	ECast
	// ESend is a point-to-point message: a transmit request going down,
	// a delivery going up.
	ESend
	// ETimer is a timer alarm (down: request, up: expiration).
	ETimer
	// EView announces a new group view. Travels up.
	EView
	// EFail announces confirmed member failures. Travels down from the
	// membership protocol.
	EFail
	// ESuspect carries failure suspicions up the stack.
	ESuspect
	// EBlock asks the application's layers to stop sending so a view
	// change can proceed. Travels up.
	EBlock
	// EBlockOk acknowledges an EBlock. Travels down.
	EBlockOk
	// EStable carries a stability vector: the minimum multicast sequence
	// numbers known to be delivered everywhere. Travels up and down.
	EStable
	// ELeave requests a graceful exit from the group. Travels down.
	ELeave
	// EExit tears a stack down. Travels up.
	EExit
	// ELostMessage signals an unrecoverable gap to the layers above.
	ELostMessage
	// EAck is an explicit acknowledgment event used by reliability
	// layers when piggybacking is not available.
	EAck
	// EMergeRequest and friends would support partition merging; they are
	// accepted by the layer interface but the shipped stacks treat them
	// as unknown events and pass them through.
	EMergeRequest
	// EBurstEnd marks the end of a member's input burst (a scheduler
	// drain phase, a socket read burst, or one direct call), just before
	// the wires batched across it leave. Travels down. A layer holding
	// work for the burst's end — the sequencer's open order run — emits
	// it here; every other layer passes the event through.
	EBurstEnd

	numTypes
)

var typeNames = [...]string{
	EInit:         "Init",
	ECast:         "Cast",
	ESend:         "Send",
	ETimer:        "Timer",
	EView:         "View",
	EFail:         "Fail",
	ESuspect:      "Suspect",
	EBlock:        "Block",
	EBlockOk:      "BlockOk",
	EStable:       "Stable",
	ELeave:        "Leave",
	EExit:         "Exit",
	ELostMessage:  "LostMessage",
	EAck:          "Ack",
	EMergeRequest: "MergeRequest",
	EBurstEnd:     "BurstEnd",
}

// String returns the Ensemble-style name of the event type.
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", int8(t))
}

// NumTypes reports how many event types exist; the IR uses it to build
// dispatch tables.
func NumTypes() int { return int(numTypes) }

// Event is the unit of interaction between layers. Layers receive an
// event, update their state, and emit zero or more events to the adjacent
// layers. Events own a message (payload plus a stack of pushed headers)
// when they carry data.
type Event struct {
	Dir  Dir
	Type Type

	// Peer is the destination rank for down-going sends and the origin
	// rank for up-going deliveries.
	Peer int

	// Msg carries the payload and header stack for data events.
	Msg Message

	// View is set on EInit and EView events.
	View *View

	// Ranks lists affected members for EFail/ESuspect events.
	Ranks []int

	// Stability is the per-member stable sequence number vector on
	// EStable events.
	Stability []int64

	// Time is the alarm time (virtual, nanoseconds) for ETimer events.
	Time int64

	// ApplMsg marks the event as carrying application payload (rather
	// than protocol-internal data such as acknowledgments or gossip).
	ApplMsg bool

	// Borrowed marks a payload the event does not own: the caller's
	// buffer from Cast/Send entry, which the caller may rewrite as soon
	// as the call returns, or arrival bytes a harness recycles. Arrivals
	// off a stable link, payloads decoded from a log and payloads frag
	// joins are owned. An event built to alias another's payload carries
	// its bit; a layer that holds a message past the call that handed it
	// over goes through OwnPayload.
	Borrowed bool

	pooled bool
}

// OwnPayload makes the message safe to hold past the call that handed
// the event over, and returns the payload: a borrowed payload is copied
// (and the record of where the headers were decoded from, which points
// into the same borrowed buffer, is dropped); an owned one is kept by
// reference. Either way the event is owned afterwards.
func (e *Event) OwnPayload() []byte {
	if e.Borrowed {
		e.Msg.Payload = append([]byte(nil), e.Msg.Payload...)
		e.Msg.enc = nil
		e.Borrowed = false
	}
	return e.Msg.Payload
}

// String renders the event compactly for traces and test failures.
func (e *Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s", e.Dir, e.Type)
	switch e.Type {
	case ECast, ESend:
		fmt.Fprintf(&b, "(peer=%d,|msg|=%d,hdrs=%d)", e.Peer, len(e.Msg.Payload), len(e.Msg.Headers))
	case EView:
		fmt.Fprintf(&b, "(%v)", e.View)
	case EFail, ESuspect:
		fmt.Fprintf(&b, "(%v)", e.Ranks)
	case ETimer:
		fmt.Fprintf(&b, "(t=%d)", e.Time)
	}
	return b.String()
}

// pool recycles events on the fast path: the paper's first optimization
// (§4, item 1) is avoiding allocation and garbage-collection work for the
// short-lived per-message objects, which Ensemble achieved with a private
// message allocator. We use a sync.Pool plus explicit Free calls from the
// stack glue.
var pool = sync.Pool{New: func() any {
	poolCounters.eventNews.Add(1)
	return new(Event)
}}

// Alloc returns a zeroed event from the pool. The event owns every
// header later pushed onto its Msg.Headers stack: Free releases them.
func Alloc() *Event {
	poolCounters.eventGets.Add(1)
	if poolDebug.Load() {
		e := new(Event)
		e.pooled = true
		debugTrack(e, true)
		return e
	}
	e := pool.Get().(*Event)
	e.pooled = true
	return e
}

// Free releases the event's remaining headers, resets it, and returns
// it to the pool. The caller must not touch the event afterwards.
// Events not obtained from Alloc are ignored so that stack-allocated
// events can be passed through the same glue.
func Free(e *Event) {
	if poolDebug.Load() {
		debugFree(e)
		return
	}
	if !e.pooled {
		return
	}
	for i, h := range e.Msg.Headers {
		FreeHeader(h)
		e.Msg.Headers[i] = nil
	}
	hdrs, offs, enc := e.Msg.Headers[:0], e.Msg.encOff[:0], e.Msg.encBuf[:0]
	*e = Event{}
	e.Msg.Headers, e.Msg.encOff, e.Msg.encBuf = hdrs, offs, enc
	poolCounters.eventPuts.Add(1)
	pool.Put(e)
}

// debugFree is the debug-mode Free: it panics on double-put, releases
// headers through their (also debug-checked) pools, and poisons and
// quarantines the event instead of recycling it so use-after-put shows
// up in PoolDebugCheck.
func debugFree(e *Event) {
	if !debugRelease(e, "event", true) {
		// Not pool-allocated (or allocated before debug mode switched
		// on): mirror the non-debug no-op for stack-allocated events.
		return
	}
	for i, h := range e.Msg.Headers {
		FreeHeader(h)
		e.Msg.Headers[i] = nil
	}
	*e = Event{}
	e.Time = poisonTime
	debugQuarantine(e, "event", func() bool {
		return e.Time == poisonTime && e.Type == EInit && e.Msg.Payload == nil &&
			len(e.Msg.Headers) == 0 && !e.pooled
	})
}

// CastEv builds a down-going multicast request carrying payload, which
// stays the caller's (the event is Borrowed).
func CastEv(payload []byte) *Event {
	e := Alloc()
	e.Dir, e.Type, e.ApplMsg, e.Borrowed = Dn, ECast, true, true
	e.Msg.Payload = payload
	return e
}

// SendEv builds a down-going point-to-point request to rank dst; the
// payload stays the caller's (the event is Borrowed).
func SendEv(dst int, payload []byte) *Event {
	e := Alloc()
	e.Dir, e.Type, e.Peer, e.ApplMsg, e.Borrowed = Dn, ESend, dst, true, true
	e.Msg.Payload = payload
	return e
}

// TimerEv builds an up-going timer expiration at virtual time t.
func TimerEv(t int64) *Event {
	e := Alloc()
	e.Dir, e.Type, e.Time = Up, ETimer, t
	return e
}

// BurstEndEv builds the down-going end-of-burst marker.
func BurstEndEv() *Event {
	e := Alloc()
	e.Dir, e.Type = Dn, EBurstEnd
	return e
}

// InitEv builds the down-going initialization event for a view.
func InitEv(v *View) *Event {
	e := Alloc()
	e.Dir, e.Type, e.View = Dn, EInit, v
	return e
}
