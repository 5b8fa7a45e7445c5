package event

// Pool debugging and the generic header pool. The steady-state data
// path recycles events, header records, and buffers instead of
// allocating (§4, item 1: avoiding garbage-collection cycles). Explicit
// ownership makes recycling correct:
//
//   - An event owns every header on its Msg.Headers stack. Free
//     releases them; Pop transfers the popped header to the caller, who
//     must re-push it, store it, or FreeHeader it.
//   - Copying a header stack goes through AppendClonedHeaders; a plain
//     slice copy would alias pooled headers and release them twice.
//   - Dup produces an independently owned event for fan-out paths.
//
// Because misuse corrupts state silently (a double-put recycles an
// object two owners believe they hold), the package has a debug mode —
// enabled by SetPoolDebug or ENSEMBLE_POOLDEBUG=1 — that makes misuse
// deterministic: Alloc and HdrPool.Get bypass the pools so every object
// is fresh, Free/Put panic on double-put, and freed objects are
// poisoned and quarantined so PoolDebugCheck can detect use-after-put.

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

var poolDebug atomic.Bool

func init() {
	if os.Getenv("ENSEMBLE_POOLDEBUG") == "1" {
		poolDebug.Store(true)
	}
}

// SetPoolDebug switches pool debugging on or off, resetting the debug
// bookkeeping. Tests use it; production code leaves it to the
// ENSEMBLE_POOLDEBUG environment variable.
func SetPoolDebug(on bool) {
	dbg.mu.Lock()
	dbg.live = make(map[any]struct{})
	dbg.freed = make(map[any]struct{})
	dbg.quar = nil
	dbg.liveEvents = 0
	dbg.liveHeaders = 0
	dbg.mu.Unlock()
	poolDebug.Store(on)
}

// PoolDebugEnabled reports whether pool debugging is active.
func PoolDebugEnabled() bool { return poolDebug.Load() }

// PoolStats counts objects handed out by the pools and not yet
// returned. Only maintained in debug mode; the leak-bound test asserts
// these stay bounded under sustained traffic.
type PoolStats struct {
	LiveEvents  int
	LiveHeaders int
}

// DebugPoolStats returns the current live-object counts (debug mode
// only; zero otherwise).
func DebugPoolStats() PoolStats {
	dbg.mu.Lock()
	defer dbg.mu.Unlock()
	return PoolStats{LiveEvents: dbg.liveEvents, LiveHeaders: dbg.liveHeaders}
}

// quarEntry is a freed, poisoned object awaiting a use-after-put sweep.
type quarEntry struct {
	ptr    any
	what   string
	intact func() bool
}

// maxQuarantine bounds debug-mode memory: the oldest quarantined
// objects (and their double-put records) are dropped past this point,
// so detection is exact only for the most recent frees — ample for
// tests, which inject the misuse immediately before checking.
const maxQuarantine = 8192

var dbg struct {
	mu          sync.Mutex
	live        map[any]struct{}
	freed       map[any]struct{}
	quar        []quarEntry
	liveEvents  int
	liveHeaders int
}

func init() {
	dbg.live = make(map[any]struct{})
	dbg.freed = make(map[any]struct{})
}

func debugTrack(ptr any, isEvent bool) {
	dbg.mu.Lock()
	dbg.live[ptr] = struct{}{}
	delete(dbg.freed, ptr)
	if isEvent {
		dbg.liveEvents++
	} else {
		dbg.liveHeaders++
	}
	dbg.mu.Unlock()
}

// debugRelease validates a put. It panics on double-put, and returns
// false for objects the pools never handed out (stack-allocated events
// passed through the same glue). On success the caller poisons the
// object and hands it to debugQuarantine.
func debugRelease(ptr any, what string, isEvent bool) bool {
	dbg.mu.Lock()
	defer dbg.mu.Unlock()
	if _, twice := dbg.freed[ptr]; twice {
		panic(fmt.Sprintf("event: pool double-put of %s %p", what, ptr))
	}
	if _, ok := dbg.live[ptr]; !ok {
		return false
	}
	delete(dbg.live, ptr)
	dbg.freed[ptr] = struct{}{}
	if isEvent {
		dbg.liveEvents--
	} else {
		dbg.liveHeaders--
	}
	return true
}

func debugQuarantine(ptr any, what string, intact func() bool) {
	dbg.mu.Lock()
	dbg.quar = append(dbg.quar, quarEntry{ptr: ptr, what: what, intact: intact})
	if len(dbg.quar) > maxQuarantine {
		drop := dbg.quar[:len(dbg.quar)-maxQuarantine]
		for _, q := range drop {
			delete(dbg.freed, q.ptr)
		}
		dbg.quar = append(dbg.quar[:0], dbg.quar[len(drop):]...)
	}
	dbg.mu.Unlock()
}

// PoolDebugCheck sweeps the quarantine of freed objects and reports any
// whose poison canary was disturbed — evidence that code wrote to an
// object after returning it to a pool. Nil when clean (or when debug
// mode is off).
func PoolDebugCheck() error {
	if !poolDebug.Load() {
		return nil
	}
	dbg.mu.Lock()
	defer dbg.mu.Unlock()
	var bad int
	var first string
	for _, q := range dbg.quar {
		if !q.intact() {
			bad++
			if first == "" {
				first = fmt.Sprintf("%s %p", q.what, q.ptr)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("event: %d freed object(s) mutated after put (first: %s)", bad, first)
	}
	return nil
}

// poisonTime marks a debug-freed event; any later mutation of the event
// disturbs the canary and PoolDebugCheck reports it.
const poisonTime int64 = -0x5EAD5EAD5EAD

// HdrPool recycles pointer headers of one concrete type. Layers keep
// one per header kind; Decode and push sites Get a record, fill it, and
// ownership follows the event rules above until FreeHdr Puts it back.
// T is comparable so the debug quarantine can verify poison canaries.
type HdrPool[T comparable] struct {
	p sync.Pool
}

// Get returns a header record. Contents are unspecified: the caller
// must set every field.
func (hp *HdrPool[T]) Get() *T {
	poolCounters.headerGets.Add(1)
	if poolDebug.Load() {
		p := new(T)
		debugTrack(p, false)
		return p
	}
	if v := hp.p.Get(); v != nil {
		return v.(*T)
	}
	poolCounters.headerNews.Add(1)
	return new(T)
}

// Put returns a record to the pool. The caller must not touch it
// afterwards.
func (hp *HdrPool[T]) Put(p *T) {
	if p == nil {
		return
	}
	poolCounters.headerPuts.Add(1)
	if poolDebug.Load() {
		if debugRelease(p, "header", false) {
			var zero T
			*p = zero
			debugQuarantine(p, "header", func() bool { return *p == zero })
		}
		return
	}
	hp.p.Put(p)
}

// Dup returns an independently owned copy of e for fan-out paths: the
// header stack is deep-cloned (pooled headers copied), mutable vectors
// are copied, and the payload is shared, Borrowed bit and all — payload
// bytes are immutable on the data path.
func Dup(e *Event) *Event {
	d := Alloc()
	hdrs, offs, enc := d.Msg.Headers, d.Msg.encOff, d.Msg.encBuf
	*d = *e
	d.pooled = true
	d.Msg.Headers = AppendClonedHeaders(hdrs[:0], e.Msg.Headers)
	// The copy keeps its own offset and encoding storage (e's is recycled
	// with e), so it forgets where it was decoded from.
	d.Msg.enc, d.Msg.encOff, d.Msg.encBuf = nil, offs[:0], enc[:0]
	if e.Ranks != nil {
		d.Ranks = append([]int(nil), e.Ranks...)
	}
	if e.Stability != nil {
		d.Stability = append([]int64(nil), e.Stability...)
	}
	return d
}
