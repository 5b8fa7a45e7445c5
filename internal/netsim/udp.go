package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ensemble/internal/event"
	"ensemble/internal/obs"
	"ensemble/internal/transport"
)

// UDPNet runs one group member's endpoint over real UDP sockets, for
// deployments outside the simulator. It implements the same Network and
// Clock contracts the simulator does; all callbacks (packets and timers)
// are serialized onto the Run goroutine, so the protocol stack needs no
// locking — the discipline Ensemble itself uses.
//
// Like a cluster Endpoint, UDPNet exposes the drain-flush capability
// (SetDrainFlush/InDrain), so an attached core.Member defers its wire
// batching across one *burst* of Run-goroutine work — every packet and
// scheduled function that is immediately available — and flushes when
// the burst ends. The wires a member emits while handling a burst
// coalesce into one datagram (one sendto syscall) per destination
// instead of one per wire, and with delta encoding on, their headers
// compress against each other too.
type UDPNet struct {
	self  event.Addr
	conn  *net.UDPConn
	peers map[event.Addr]*udpPeer

	// hdr is the datagram envelope every outgoing datagram carries:
	// the magic byte and this endpoint's member address. Immutable
	// after construction, so write may share it across goroutines.
	hdr []byte

	// t0 is the monotonic epoch: Now() reports nanoseconds elapsed
	// since the endpoint opened, measured on the runtime's monotonic
	// clock, so retransmission deadlines computed as Now()+timeout are
	// immune to NTP steps and skew of the wall clock (a wall-based
	// clock made timers fire early when the wall clock stepped
	// forward, and stall when it stepped back).
	t0 time.Time

	mu     sync.Mutex
	recv   func(Packet)
	funcs  chan func()
	closed chan struct{}
	// timers tracks every outstanding time.AfterFunc so Close can stop
	// them: an untracked timer outlives Close and fires into a closed
	// endpoint (and keeps the process alive until it expires).
	timers map[*time.Timer]struct{}

	// drainFlush is the member's batch-flush hook; draining is true
	// while the Run goroutine is inside a burst (the member's InDrain).
	drainFlush func()
	draining   atomic.Bool

	// rebind, when set, runs on the Run goroutine after a known peer's
	// datagram arrives from a new socket address — the member hooks it
	// to restart its cross-frame delta chains toward the (presumably
	// restarted) peer. Guarded by mu like the other hooks.
	rebind func(event.Addr)

	// lossP/lossRng inject receive-side frame loss for equivalence
	// testing: batched frames are dropped with probability lossP before
	// decode, on the Run goroutine only (so the draw order is the
	// delivery order). Control packets — including resyncs — are never
	// dropped, so recovery traffic survives the injected loss.
	lossP   float64
	lossRng *rand.Rand

	// syncs holds the waiters Sync parked until the current burst —
	// including its end-of-burst flush — completes. Appended to and
	// drained on the Run goroutine only.
	syncs []chan struct{}

	stats udpCounters
	// walker is the receive link; GenMisses, StaleGenFrames and Resyncs
	// in UDPStats are its counters.
	walker *transport.FrameWalker

	// resyncRTT samples the resync round trip: the gap between sending a
	// resync toward a peer (first generation miss) and the next cleanly
	// decoded frame from that peer — how long a lost-base episode
	// actually keeps a link undecodable. pendResync holds the per-peer
	// send marks; both are touched on the Run goroutine only (deliver),
	// and the map is preallocated so the receive path never allocates.
	resyncRTT  obs.Histogram
	pendResync map[event.Addr]int64
}

// udpPeer is one peer's last known socket address. The peer *set* is
// fixed at construction (identity is the member address in the datagram
// envelope), but the socket address behind an identity may move: an
// ensemble-node that restarts rebinds, possibly to an ephemeral port.
// The pointer is atomic because the send path (any goroutine) reads it
// while the reader goroutine updates it.
type udpPeer struct {
	addr atomic.Pointer[net.UDPAddr]
}

// udpCounters is the live, atomic form of UDPStats: write() runs on
// whatever goroutine flushed, and benches read Stats mid-run.
type udpCounters struct {
	datagrams, bytesOnWire, sendErrors, droppedOnClose obs.Counter
	unknownSource, peerMoves, injectedDrops            obs.Counter
}

// UDPStats counts the socket-side traffic. Every datagram handed to
// Send/Cast lands in exactly one counter — Datagrams (written), or
// DroppedOnClose (the socket closed under it), or SendErrors — so
// nothing leaves the books silently; the receive side counts what it
// could not attribute.
type UDPStats struct {
	// Datagrams and BytesOnWire count successful socket writes; a
	// multicast counts one write per peer (UDP has no broadcast here).
	Datagrams   int64
	BytesOnWire int64
	// SendErrors counts failed writes on a live socket.
	SendErrors int64
	// DroppedOnClose counts datagrams dropped because the socket closed
	// while they were pending — batched wires flushed at the end of the
	// burst that called Close. They are deliberately dropped, not
	// leaked: Close is allowed to cut a burst's tail off, but the count
	// makes it visible.
	DroppedOnClose int64
	// UnknownSource counts received datagrams whose sender could not be
	// identified: an envelope naming a member outside the peer table, a
	// malformed envelope, or an unenveloped datagram from a socket
	// address no peer is known at. They are dropped — but counted, so a
	// misconfigured hosts file or a stray talker shows up in the stats
	// instead of vanishing.
	UnknownSource int64
	// PeerMoves counts observed sender address changes: a known peer's
	// datagram arriving from a socket address different from the one on
	// record (a restarted process rebinding, typically ephemerally).
	// The new address replaces the old for subsequent sends.
	PeerMoves int64
	// GenMisses counts frame arrivals whose first sub needed a peer
	// base this endpoint did not hold (a lost or reordered
	// predecessor); each one was answered with a resync request.
	GenMisses int64
	// StaleGenFrames counts frame arrivals tagged with a generation
	// older than the mirror's — late traffic from before a
	// chain restart, dropped as garbage without a resync.
	StaleGenFrames int64
	// Resyncs counts resync requests this endpoint sent.
	Resyncs int64
	// InjectedDrops counts frames discarded by SetRecvLoss.
	InjectedDrops int64
}

// maxBurst bounds how many mailbox items one burst may absorb before a
// forced flush, so a sustained packet storm cannot defer the batched
// wires (and the peers' acknowledgments) indefinitely.
const maxBurst = 64

// udpMagic heads every UDPNet datagram; a uvarint with the sender's
// member address follows, then the payload (a batched frame or a raw
// packet). Identity rides the wire, not the datagram's source socket
// address: a peer that rebinds — an ensemble-node restart lands on an
// ephemeral port — keeps its identity, where source-address matching
// misattributed it or dropped it silently. 0xD5 collides with neither
// the frame and resync magics (0xB9/0xBA) nor a leading epoch uvarint's
// first byte in practice, but nothing depends on that: the envelope is
// stripped before the payload is looked at.
const udpMagic = 0xD5

// NewUDPNet opens a UDP endpoint at listen (host:port) for member self,
// with the addresses of every member (including self) in peers.
func NewUDPNet(self event.Addr, listen string, peers map[event.Addr]string) (*UDPNet, error) {
	laddr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("netsim: resolve %q: %w", listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("netsim: listen %q: %w", listen, err)
	}
	u := &UDPNet{
		self:       self,
		conn:       conn,
		peers:      map[event.Addr]*udpPeer{},
		hdr:        binary.AppendUvarint([]byte{udpMagic}, uint64(self)),
		t0:         time.Now(),
		funcs:      make(chan func(), 256),
		closed:     make(chan struct{}),
		timers:     map[*time.Timer]struct{}{},
		walker:     transport.NewWalker(true),
		pendResync: map[event.Addr]int64{},
	}
	for a, hostport := range peers {
		ua, err := net.ResolveUDPAddr("udp", hostport)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("netsim: resolve peer %d at %q: %w", a, hostport, err)
		}
		p := &udpPeer{}
		p.addr.Store(ua)
		u.peers[a] = p
	}
	return u, nil
}

// LocalAddr reports the bound socket address (useful with port 0).
func (u *UDPNet) LocalAddr() string { return u.conn.LocalAddr().String() }

// Stats reads the socket counters; safe from any goroutine while the
// endpoint runs.
func (u *UDPNet) Stats() UDPStats {
	link := u.walker.Counters()
	return UDPStats{
		Datagrams:      u.stats.datagrams.Load(),
		BytesOnWire:    u.stats.bytesOnWire.Load(),
		SendErrors:     u.stats.sendErrors.Load(),
		DroppedOnClose: u.stats.droppedOnClose.Load(),
		UnknownSource:  u.stats.unknownSource.Load(),
		PeerMoves:      u.stats.peerMoves.Load(),
		GenMisses:      link.GenMisses.Load(),
		StaleGenFrames: link.StaleGenFrames.Load(),
		Resyncs:        link.Resyncs.Load(),
		InjectedDrops:  u.stats.injectedDrops.Load(),
	}
}

// RegisterMetrics adopts the socket counters into reg under the "udp/"
// prefix.
func (u *UDPNet) RegisterMetrics(reg *obs.Registry) {
	sc := reg.Scope("udp/")
	sc.Adopt("datagrams", &u.stats.datagrams)
	sc.Adopt("bytes_on_wire", &u.stats.bytesOnWire)
	sc.Adopt("send_errors", &u.stats.sendErrors)
	sc.Adopt("dropped_on_close", &u.stats.droppedOnClose)
	sc.Adopt("unknown_source", &u.stats.unknownSource)
	sc.Adopt("peer_moves", &u.stats.peerMoves)
	link := u.walker.Counters()
	sc.Adopt("gen_misses", &link.GenMisses)
	sc.Adopt("stale_gen_frames", &link.StaleGenFrames)
	sc.Adopt("resyncs", &link.Resyncs)
	sc.Adopt("injected_drops", &u.stats.injectedDrops)
	sc.AdoptHistogram("resync_rtt_ns", &u.resyncRTT)
}

// SetRebindHook registers fn to run on the Run goroutine when a known
// peer's datagrams start arriving from a new socket address (the
// process behind the identity restarted). A member hooks this to bump
// its cross-frame generation toward the peer, so its next frame is
// decodable by the peer's fresh, mirror-less state without waiting for
// a resync round trip.
func (u *UDPNet) SetRebindHook(fn func(event.Addr)) {
	u.mu.Lock()
	u.rebind = fn
	u.mu.Unlock()
}

// SetRecvLoss arranges for incoming batched frames to be dropped with
// probability prob (deterministically per seed) before decode — a
// receive-side loss injector for exercising the cross-frame resync
// path over real sockets. Control packets, including resyncs, are
// never dropped. Call before Run; the draw happens on the Run
// goroutine in delivery order.
func (u *UDPNet) SetRecvLoss(prob float64, seed int64) {
	u.lossP = prob
	u.lossRng = rand.New(rand.NewSource(seed))
}

// Attach implements the member network contract.
func (u *UDPNet) Attach(addr event.Addr, recv func(Packet)) {
	if addr != u.self {
		panic(fmt.Sprintf("netsim: UDP endpoint is member %d, not %d", u.self, addr))
	}
	u.mu.Lock()
	u.recv = recv
	u.mu.Unlock()
}

// Detach implements the member network contract.
func (u *UDPNet) Detach(addr event.Addr) {
	u.mu.Lock()
	u.recv = nil
	u.mu.Unlock()
}

// SetDrainFlush registers the hook the Run goroutine calls at the end of
// every burst — core.Member installs its batch flush here, which is what
// routes the real-socket send path through the Batcher.
func (u *UDPNet) SetDrainFlush(fn func()) {
	u.mu.Lock()
	u.drainFlush = fn
	u.mu.Unlock()
}

// InDrain reports whether the Run goroutine is inside a burst; the
// member keeps batching while it is, knowing the end-of-burst hook is
// coming.
func (u *UDPNet) InDrain() bool { return u.draining.Load() }

// Send transmits point-to-point.
func (u *UDPNet) Send(from, to event.Addr, data []byte) {
	if p, ok := u.peers[to]; ok {
		u.write(data, p.addr.Load())
	}
}

// Cast transmits to every peer except self.
func (u *UDPNet) Cast(from event.Addr, data []byte) {
	for a, p := range u.peers {
		if a == from {
			continue
		}
		u.write(data, p.addr.Load())
	}
}

// write pushes one datagram at the socket — envelope, then payload —
// and accounts for the outcome; see UDPStats for the taxonomy.
// WriteToUDP is goroutine-safe, so both the Run goroutine (burst-end
// flushes) and application goroutines (sends outside a burst) may land
// here.
func (u *UDPNet) write(data []byte, ua *net.UDPAddr) {
	buf := make([]byte, 0, len(u.hdr)+len(data))
	buf = append(append(buf, u.hdr...), data...)
	_, err := u.conn.WriteToUDP(buf, ua)
	if err != nil {
		// An error our own Close produced is never a SendError, however
		// the close interleaved with this write: a burst-end flush can
		// race Close's conn.Close and observe the dead socket a beat
		// before (or after) the closed channel reads as closed, and
		// net.ErrClosed identifies it either way. Keeping those out of
		// SendErrors preserves its meaning — the network refused a live
		// socket's datagram.
		if errors.Is(err, net.ErrClosed) || u.isClosed() {
			u.stats.droppedOnClose.Inc()
		} else {
			u.stats.sendErrors.Inc()
		}
		return
	}
	// Bytes before the count: Stats reads the count first, so every
	// datagram it sees has its bytes on the books.
	u.stats.bytesOnWire.Add(int64(len(buf)))
	u.stats.datagrams.Inc()
}

func (u *UDPNet) isClosed() bool {
	select {
	case <-u.closed:
		return true
	default:
		return false
	}
}

// Now implements the member clock: monotonic nanoseconds since the
// endpoint opened. time.Since reads the runtime's monotonic clock, so
// an NTP step or slew of the wall clock between two reads never shows
// up in their difference — retransmission deadlines (Now()+timeout in
// the layers above) neither fire early on a forward step nor stall on
// a backward one.
func (u *UDPNet) Now() int64 { return time.Since(u.t0).Nanoseconds() }

// After schedules fn on the Run goroutine. Timers registered after
// Close never fire; timers outstanding at Close are stopped.
func (u *UDPNet) After(delay int64, fn func()) {
	u.mu.Lock()
	defer u.mu.Unlock()
	select {
	case <-u.closed:
		return
	default:
	}
	var tm *time.Timer
	tm = time.AfterFunc(time.Duration(delay), func() {
		u.mu.Lock()
		delete(u.timers, tm)
		u.mu.Unlock()
		select {
		case u.funcs <- fn:
		case <-u.closed:
		}
	})
	u.timers[tm] = struct{}{}
}

// Do runs fn on the Run goroutine (for application sends).
func (u *UDPNet) Do(fn func()) {
	select {
	case u.funcs <- fn:
	case <-u.closed:
	}
}

// Flush schedules an empty entry on the Run goroutine; its burst-end
// hook flushes whatever the attached member has batched. Deployments
// that want wires on the network at a specific moment (before blocking
// on a reply, say) call this; the routine flush points — end of every
// burst — need no help.
func (u *UDPNet) Flush() { u.Do(func() {}) }

// Sync schedules an empty entry on the Run goroutine and blocks until
// the burst that absorbed it — including its end-of-burst flush — has
// completed: when Sync returns true, every wire the attached member had
// batched before the call is on the socket. This is the launcher's
// clean-shutdown step (Sync, then Close), which guarantees the final
// flush can never land on a closed conn. Returns false if the endpoint
// closed first, in which case nothing more will flush.
func (u *UDPNet) Sync() bool {
	done := make(chan struct{})
	select {
	case u.funcs <- func() { u.syncs = append(u.syncs, done) }:
	case <-u.closed:
		return false
	}
	select {
	case <-done:
		return true
	case <-u.closed:
		return false
	}
}

// Run reads packets and executes scheduled functions until Close,
// serializing everything onto this goroutine. Work is absorbed in
// bursts: one blocking receive, then everything else immediately
// available (bounded by maxBurst), then the end-of-burst flush hook.
func (u *UDPNet) Run() error {
	pkts := make(chan Packet, 256)
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, raddr, err := u.conn.ReadFromUDP(buf)
			if err != nil {
				close(pkts)
				return
			}
			data, from, ok := u.identify(append([]byte(nil), buf[:n]...), raddr)
			if !ok {
				continue
			}
			select {
			case pkts <- Packet{From: from, To: u.self, Data: data}:
			case <-u.closed:
				return
			}
		}
	}()
	for {
		select {
		case p, ok := <-pkts:
			if !ok {
				// The socket died under us without (or racing) Close; mark
				// the endpoint closed so Do and Sync callers do not hang.
				u.Close()
				return nil
			}
			u.draining.Store(true)
			u.deliver(p)
		case fn := <-u.funcs:
			u.draining.Store(true)
			fn()
		case <-u.closed:
			return nil
		}
	burst:
		for n := 1; n < maxBurst; n++ {
			select {
			case p, ok := <-pkts:
				if !ok {
					break burst
				}
				u.deliver(p)
			case fn := <-u.funcs:
				fn()
			default:
				break burst
			}
		}
		// End of burst: run the member's deferred batch flush (with
		// draining still true, exactly like a cluster drain barrier),
		// then hand the "not in a burst" state back and release any
		// Sync waiters this burst absorbed.
		u.mu.Lock()
		flush := u.drainFlush
		u.mu.Unlock()
		if flush != nil {
			flush()
		}
		u.draining.Store(false)
		for _, done := range u.syncs {
			close(done)
		}
		u.syncs = u.syncs[:0]
	}
}

// identify strips the datagram envelope and resolves the sender. The
// envelope's member address is authoritative (and updates the peer's
// socket address on a rebind); a datagram without an envelope — from a
// harness poking the socket directly — falls back to matching the
// source socket address against the peer table. Whatever cannot be
// attributed is dropped and counted (UDPStats.UnknownSource).
func (u *UDPNet) identify(data []byte, raddr *net.UDPAddr) ([]byte, event.Addr, bool) {
	if len(data) >= 2 && data[0] == udpMagic {
		id, n := binary.Uvarint(data[1:])
		if n > 0 {
			from := event.Addr(id)
			if p, ok := u.peers[from]; ok {
				if cur := p.addr.Load(); cur == nil || cur.Port != raddr.Port || !cur.IP.Equal(raddr.IP) {
					// Known peer, new socket address: the process behind
					// the identity rebound. Track it so replies reach the
					// new binding instead of the stale hosts-file one, and
					// restart cross-frame state on the Run goroutine: the
					// receive mirrors for the old incarnation are invalid,
					// and the member (via the rebind hook) bumps its send
					// generation so the fresh peer can decode without a
					// resync round trip. identify runs on the reader
					// goroutine, so the work is posted, not done inline.
					p.addr.Store(raddr)
					u.stats.peerMoves.Inc()
					u.Do(func() {
						u.walker.InvalidateFrom(from)
						u.mu.Lock()
						hook := u.rebind
						u.mu.Unlock()
						if hook != nil {
							hook(from)
						}
					})
				}
				return data[1+n:], from, true
			}
		}
		u.stats.unknownSource.Inc()
		return nil, -1, false
	}
	if from := u.addrOf(raddr); from >= 0 {
		return data, from, true
	}
	u.stats.unknownSource.Inc()
	return nil, -1, false
}

// deliver hands a received datagram to the receive link: batched
// frames become one recv call per sub-packet, raw packets pass through
// whole. The reader loop copied the datagram into a fresh buffer and the
// link runs in stable mode, so subs — including reconstructed ones — can
// be retained safely downstream.
func (u *UDPNet) deliver(p Packet) {
	u.mu.Lock()
	recv := u.recv
	u.mu.Unlock()
	if recv == nil {
		return
	}
	if transport.IsFrame(p.Data) && u.lossRng != nil && u.lossP > 0 && u.lossRng.Float64() < u.lossP {
		u.stats.injectedDrops.Inc()
		return
	}
	resync, decoded := u.walker.WalkLink(p.From, p.To, p.Data, func(sub []byte) {
		q := p
		q.Data = sub
		recv(q)
	})
	if resync != nil {
		// An arrival the link could not anchor: ask the sender to restart
		// its chain. The resync is a raw control datagram — not a frame —
		// so injected loss cannot eat the recovery.
		if pr, ok := u.peers[p.From]; ok {
			u.write(resync, pr.addr.Load())
			if _, pending := u.pendResync[p.From]; !pending {
				u.pendResync[p.From] = u.Now()
			}
		}
	} else if decoded {
		// First cleanly decoded frame after an outstanding resync closes
		// the round trip: the link is decodable again.
		if t, pending := u.pendResync[p.From]; pending {
			u.resyncRTT.Observe(u.Now() - t)
			delete(u.pendResync, p.From)
		}
	}
}

// addrOf maps a socket address back to a member address — the legacy
// identity path for unenveloped datagrams only; enveloped traffic is
// keyed on the sender rank it carries (see identify).
func (u *UDPNet) addrOf(ra *net.UDPAddr) event.Addr {
	for a, p := range u.peers {
		if ua := p.addr.Load(); ua != nil && ua.Port == ra.Port && ua.IP.Equal(ra.IP) {
			return a
		}
	}
	return -1
}

// Close shuts the endpoint down and stops every outstanding timer.
// Wires still batched in the attached member when Close lands mid-burst
// are deterministically dropped and counted (UDPStats.DroppedOnClose)
// when the burst-end flush hits the closed socket — Close never leaves
// sub-packets silently pending. For a shutdown that loses nothing, call
// Sync first: it blocks until the batched wires are on the socket.
func (u *UDPNet) Close() error {
	u.mu.Lock()
	select {
	case <-u.closed:
	default:
		close(u.closed)
		for tm := range u.timers {
			tm.Stop()
		}
		u.timers = map[*time.Timer]struct{}{}
	}
	u.mu.Unlock()
	return u.conn.Close()
}
