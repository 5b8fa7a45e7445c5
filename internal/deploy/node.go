package deploy

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"

	"ensemble/internal/core"
	"ensemble/internal/event"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/obs"
	"ensemble/internal/stack"
)

// The ensemble-node runtime: one ClusterGroup member per OS process
// over real UDP sockets, bootstrapped from a hosts file and a member
// id. The node speaks a four-word line protocol with whoever launched
// it — READY up once the socket is bound and the stack built, GO down
// to admit traffic, DONE up when the workload is delivered, EXIT down
// to shut down — so a launcher can hold all processes at the barrier
// until every socket exists (no artificial startup loss) and keep them
// alive until every peer has finished (the last messages' NAK repairs
// need live senders).

// NodeConfig configures one node process.
type NodeConfig struct {
	// ID is this member's id (1-based, as in the hosts file).
	ID    int
	Hosts []Host
	W     Workload
	// Ring overrides the flight ring size (default referenceRing, so
	// node and reference wraparound points align).
	Ring int
	// Timeout bounds the workload phase (GO to delivery-complete).
	Timeout time.Duration
	// Loss, when > 0, drops that fraction of incoming data frames before
	// decode (netsim.UDPNet.SetRecvLoss) — the adversarial half of the
	// equivalence gate: the delivered sequence must still match the
	// loss-free reference. LossSeed seeds the drop pattern; each node
	// offsets it by its ID so the processes do not drop in lockstep.
	Loss     float64
	LossSeed int64
	// BumpAfter, when > 0, bumps every cross-frame generation after that
	// many local deliveries — a forced mid-run resync of all the node's
	// chains, exercising the 0xB9 generation machinery under real load.
	BumpAfter int
	// Telemetry, when non-empty, is the host:port ("127.0.0.1:0" for an
	// ephemeral port) the node's live telemetry server binds. The bound
	// address is announced as "TELEM <addr>" on the status stream before
	// READY, so a launcher can poll the registry mid-run.
	Telemetry string
}

// NodeResult is what one node run produces.
type NodeResult struct {
	ID int `json:"id"`
	// Rank is the member's rank in the static deployment view (ID-1).
	Rank int `json:"rank"`
	// Log is the member's delivery sequence.
	Log []MsgID `json:"log"`
	// Flight is the member's flight-dump image (all ranks' tracks, only
	// this member's populated — MergeDumps interleaves them).
	Flight []byte `json:"flight"`
	// Metrics is the node's registry snapshot (member, udp, pool).
	Metrics obs.Snapshot `json:"metrics"`
	// UDP is the socket-side accounting.
	UDP netsim.UDPStats `json:"udp"`
}

// RunNode hosts member cfg.ID over UDP per cfg.Hosts, drives the
// chained workload, and returns the run's log, flight, and counters.
// ctrl and status carry the launcher protocol; a nil ctrl runs
// free-standing (GO immediately, exit when done). Even on error the
// result carries whatever flight was recorded — a stalled run's flight
// is exactly what the launcher archives for diagnosis.
func RunNode(cfg NodeConfig, ctrl io.Reader, status io.Writer) (NodeResult, error) {
	w := cfg.W
	w.Members = len(cfg.Hosts)
	res := NodeResult{ID: cfg.ID, Rank: cfg.ID - 1}
	if w.Members < 2 {
		return res, fmt.Errorf("deploy: node needs >= 2 members in the hosts file, got %d", w.Members)
	}
	self, err := SelfAddr(cfg.Hosts, cfg.ID)
	if err != nil {
		return res, err
	}
	rank := cfg.ID - 1
	ring := cfg.Ring
	if ring <= 0 {
		ring = referenceRing
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}

	u, err := netsim.NewUDPNet(event.Addr(cfg.ID), self, PeerMap(cfg.Hosts))
	if err != nil {
		return res, err
	}
	defer u.Close()
	if cfg.Loss > 0 {
		u.SetRecvLoss(cfg.Loss, cfg.LossSeed+int64(cfg.ID))
	}

	addrs := make([]event.Addr, w.Members)
	for i := range addrs {
		addrs[i] = event.Addr(i + 1)
	}
	v := event.NewView("deploy", 1, addrs, rank)

	driver := &chainDriver{w: w, rank: rank}
	done := make(chan struct{})
	signaled := false // handler-goroutine only; a dup past the last message must not re-close
	bumped := false   // handler-goroutine only, like signaled
	var m *core.Member
	m, err = core.NewOptimizedMember(u, u, v, layers.Stack10(), stack.Func, core.Handlers{
		OnCast: func(origin int, payload []byte) {
			id, derr := DecodePayload(payload)
			if derr != nil {
				id = MsgID{Origin: -1, Index: -1}
			}
			driver.deliver(id)
			if cfg.BumpAfter > 0 && !bumped && len(driver.log) >= cfg.BumpAfter {
				// Forced mid-run generation bump: every chain restarts
				// from a full-header anchor, as after a view install.
				bumped = true
				m.Batcher().BumpGenerations()
			}
			if next, due := driver.next(); due {
				m.Cast(w.Payload(next))
			}
			if driver.done() && !signaled {
				signaled = true
				close(done)
			}
		},
	})
	if err != nil {
		return res, err
	}
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(w.Members, ring)
	m.EnableObs(reg.Scope(fmt.Sprintf("member%d/", rank)), rec.Track(rank))
	u.RegisterMetrics(reg)
	core.RegisterPoolMetrics(reg)
	m.Start()
	runDone := make(chan error, 1)
	go func() { runDone <- u.Run() }()

	// collect snapshots state after the Run goroutine has exited (the
	// channel receive orders the reads after every member callback).
	collect := func() {
		u.Close()
		<-runDone
		res.Log = driver.log
		res.Flight = rec.DumpBytes()
		res.Metrics = reg.Snapshot()
		res.UDP = u.Stats()
	}

	// Live telemetry: a loopback HTTP server over the registry. The
	// snapshot closure hops onto the Run goroutine (Func gauges read
	// plain member fields), with a bounded wait so a poll racing
	// shutdown gets the server's cached last snapshot instead of
	// hanging.
	if cfg.Telemetry != "" {
		ts, terr := StartTelemetry(cfg.Telemetry, func() (obs.Snapshot, bool) {
			ch := make(chan obs.Snapshot, 1)
			u.Do(func() { ch <- reg.Snapshot() })
			select {
			case s := <-ch:
				return s, true
			case <-time.After(2 * time.Second):
				return nil, false
			}
		})
		if terr != nil {
			return res, terr
		}
		defer ts.Close()
		if status != nil {
			fmt.Fprintf(status, "TELEM %s\n", ts.Addr())
		}
	}

	// Barrier up: socket bound, member built — tell the launcher and
	// wait for the group-wide GO.
	lines := protoLines(ctrl)
	if status != nil {
		fmt.Fprintln(status, protoReady)
	}
	if ctrl != nil {
		word, err := protoExpect(lines, timeout, protoGo, protoExit)
		if err != nil {
			collect()
			return res, fmt.Errorf("deploy: node %d waiting for %s: %w", cfg.ID, protoGo, err)
		}
		if word == protoExit {
			collect()
			return res, nil
		}
	}

	// Admit traffic: position 0 is member 0's turn; everyone else's
	// first turn is unlocked by deliveries.
	u.Do(func() {
		if next, due := driver.next(); due {
			m.Cast(w.Payload(next))
		}
	})

	select {
	case <-done:
	case err := <-runDone:
		runDone <- err
		collect()
		return res, fmt.Errorf("deploy: node %d socket closed mid-workload", cfg.ID)
	case <-time.After(timeout):
		collect()
		return res, fmt.Errorf("deploy: node %d delivered %d of %d within %v",
			cfg.ID, len(res.Log), w.Total(), timeout)
	}
	if status != nil {
		// The socket-side scorecard rides the status stream right before
		// DONE (protocol waits tolerate the chatter): how much resync and
		// drop traffic this run actually generated, without digging into
		// the JSON artifact.
		s := u.Stats()
		fmt.Fprintf(status, "STATS gen_misses=%d stale_gen_frames=%d resyncs=%d injected_drops=%d peer_moves=%d\n",
			s.GenMisses, s.StaleGenFrames, s.Resyncs, s.InjectedDrops, s.PeerMoves)
		fmt.Fprintln(status, protoDone)
	}
	// Stay alive until the launcher has seen DONE from every node: this
	// member's retransmission buffers are what repair a peer's trailing
	// losses. Free-standing (ctrl == nil), there is nobody to wait for.
	if ctrl != nil {
		if _, err := protoExpect(lines, timeout, protoExit); err != nil {
			collect()
			return res, fmt.Errorf("deploy: node %d waiting for %s: %w", cfg.ID, protoExit, err)
		}
	}
	// Graceful shutdown: detach the member on its own goroutine, push
	// the batched tail onto the socket (Sync), then close.
	u.Do(m.Shutdown)
	u.Sync()
	collect()
	return res, nil
}

// The launcher wire protocol. TELEM and STATS are one-way
// announcements on the status stream (node → launcher), not barrier
// words: protocol waits that are not looking for them skip them as
// chatter.
const (
	protoReady = "READY"
	protoGo    = "GO"
	protoDone  = "DONE"
	protoExit  = "EXIT"
	protoTelem = "TELEM"
)

// protoLines pumps ctrl into a line channel so protocol waits can carry
// deadlines; the channel closes on EOF (launcher death).
func protoLines(ctrl io.Reader) <-chan string {
	if ctrl == nil {
		return nil
	}
	ch := make(chan string, 4)
	go func() {
		sc := bufio.NewScanner(ctrl)
		for sc.Scan() {
			ch <- strings.TrimSpace(sc.Text())
		}
		close(ch)
	}()
	return ch
}

// protoExpect waits for one of the expected protocol words.
func protoExpect(lines <-chan string, d time.Duration, want ...string) (string, error) {
	return protoExpectObs(lines, d, nil, want...)
}

// protoExpectObs waits for one of the expected protocol words, handing
// every other line to observe (when non-nil) — how the launcher picks
// TELEM announcements out of the pre-READY chatter.
func protoExpectObs(lines <-chan string, d time.Duration, observe func(string), want ...string) (string, error) {
	deadline := time.After(d)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				return "", fmt.Errorf("control stream closed")
			}
			for _, w := range want {
				if line == w {
					return w, nil
				}
			}
			// Tolerate chatter (a shell echo, a stray blank): only
			// protocol words matter — but let the observer see it.
			if observe != nil {
				observe(line)
			}
		case <-deadline:
			return "", fmt.Errorf("timed out after %v", d)
		}
	}
}
