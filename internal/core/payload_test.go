package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

// appPayload is the k-th payload of the given kind ('c' cast, 's' send)
// that origin submits: size bytes no other submission shares.
func appPayload(kind byte, origin, k, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = kind ^ byte(origin*31+k*7+i*13+i>>8)
	}
	return p
}

// TestApplicationRewritesItsBuffer: an application submits every cast
// and send from one buffer and rewrites it the moment each call returns.
// What is delivered must still be what was submitted, on every stack and
// execution model, with payloads below and above MaxFragSize (so frag's
// fragments alias the buffer too), over a lossy network, so that NAKs
// and gaps are served from log records — the ones a receiver keeps of
// arrival bytes by reference among them. A layer that held a borrowed
// payload by reference — total's wait for the order, mflow's credit
// queue, pt2ptw's window queue, mnak's retransmission log — would
// deliver the rewrite instead.
// Run and RunConcurrent deliver the same sequences.
func TestApplicationRewritesItsBuffer(t *testing.T) {
	const members, rounds = 4, 4
	castSizes := []int{100, 9000, 20000, 20000, 20000} // past mflow's credit: casts queue
	sendSizes := []int{100, 9000}
	// The first round's sends are a burst of 72 pt2ptw messages, past
	// its window of 64: sends queue.
	sendsIn := func(round int) int {
		if round == 0 {
			return 48
		}
		return len(sendSizes)
	}
	sendsTotal := sendsIn(0) + (rounds-1)*sendsIn(1)
	drive := func(t *testing.T, names []string, mode stack.Mode, optimized bool, workers int) [][]string {
		logs := make([][]string, members)
		next := make([]map[string]int, members)
		handlers := func(rank int) Handlers {
			next[rank] = map[string]int{}
			deliver := func(kind byte, origin int, payload []byte) {
				if len(payload) == 0 {
					return // trailing traffic
				}
				key := fmt.Sprintf("%c%d", kind, origin)
				k := next[rank][key]
				next[rank][key]++
				sizes := castSizes
				if kind == 's' {
					sizes = sendSizes
				}
				if want := appPayload(kind, origin, k, sizes[k%len(sizes)]); !bytes.Equal(payload, want) {
					t.Errorf("member %d: %s's submission %d delivered rewritten (%d bytes, want %d)", rank, key, k, len(payload), len(want))
				}
				logs[rank] = append(logs[rank], fmt.Sprintf("%s#%d", key, k))
			}
			return Handlers{
				OnCast: func(origin int, p []byte) { deliver('c', origin, p) },
				OnSend: func(origin int, p []byte) { deliver('s', origin, p) },
			}
		}
		var g *ClusterGroup
		var err error
		if optimized {
			g, err = NewOptimizedClusterGroup(members, netsim.Lossy(0.05), 5, names, mode, handlers)
		} else {
			g, err = NewClusterGroup(members, netsim.Lossy(0.05), 5, names, mode, handlers)
		}
		if err != nil {
			t.Fatal(err)
		}
		run := func(d int64) {
			if workers > 1 {
				g.RunConcurrent(d, workers)
			} else {
				g.Run(d)
			}
		}
		buf := make([]byte, 0, 20000)
		sent := make([]int, members)
		submit := func(call func([]byte), kind byte, origin, k, size int) {
			buf = append(buf[:0], appPayload(kind, origin, k, size)...)
			call(buf)
			for i := range buf {
				buf[i] = 0xEE
			}
		}
		for i := 0; i < rounds; i++ {
			for r, m := range g.Members {
				for j, size := range castSizes {
					submit(m.Cast, 'c', r, i*len(castSizes)+j, size)
				}
				for j := 0; j < sendsIn(i); j++ {
					dst, k := (r+1)%members, sent[r]
					sent[r]++
					submit(func(p []byte) {
						if err := m.Send(dst, p); err != nil {
							t.Fatal(err)
						}
					}, 's', r, k, sendSizes[k%len(sendSizes)])
				}
			}
			run(int64(20e6))
		}
		self := slices.Contains(names, layers.Local)
		missing := func(ms []*Member) string {
			for r := range ms {
				for o := 0; o < members; o++ {
					if n := next[r][fmt.Sprintf("c%d", o)]; n != rounds*len(castSizes) && (o != r || self) {
						return fmt.Sprintf("member %d delivered %d of member %d's %d casts", r, n, o, rounds*len(castSizes))
					}
				}
				if from := (r + members - 1) % members; next[r][fmt.Sprintf("s%d", from)] != sendsTotal {
					return fmt.Sprintf("member %d delivered %d of member %d's %d sends", r, next[r][fmt.Sprintf("s%d", from)], from, sendsTotal)
				}
			}
			return ""
		}
		stay := g.Members
		if slices.Contains(names, layers.Membership) {
			// A flush with traffic still in flight: every member NAKs every
			// member for what some survivor has, and the kept casts serve.
			g.Members[members-1].Leave()
			stay = stay[:members-1]
		}
		run(int64(30e9))
		// Empty casts behind the last ones: a stack without a stability
		// layer (Stack4, StackFifo) only notices a lost cast when a later
		// one from its origin arrives.
		for i := 0; i < 100 && missing(stay) != ""; i++ {
			for _, m := range stay {
				m.Cast(nil)
			}
			run(int64(20e6))
		}
		if msg := missing(stay); msg != "" {
			t.Fatal(msg)
		}
		return logs
	}
	for _, tc := range []struct {
		name      string
		names     []string
		mode      stack.Mode
		optimized bool
	}{
		{"stack10/func", layers.Stack10(), stack.Func, false},
		{"stack10/imp", layers.Stack10(), stack.Imp, false},
		{"stack10/mach", layers.Stack10(), stack.Func, true},
		{"vsync", layers.StackVsync(), stack.Func, false},
		{"stack4", layers.Stack4(), stack.Imp, false},
		{"fifo", layers.StackFifo(), stack.Imp, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq := drive(t, tc.names, tc.mode, tc.optimized, 1)
			conc := drive(t, tc.names, tc.mode, tc.optimized, members)
			for r := range seq {
				if !slices.Equal(seq[r], conc[r]) {
					t.Fatalf("member %d: Run and RunConcurrent deliver different sequences:\n%v\n%v", r, seq[r], conc[r])
				}
			}
		})
	}
}

// auditedEndpoint is a member's cluster endpoint that records every wire
// delivered to it together with the CRC it had on arrival.
type auditedEndpoint struct {
	*netsim.Endpoint
	arrivals []auditedWire
}

type auditedWire struct {
	data []byte
	crc  uint32
}

func (a *auditedEndpoint) Attach(addr event.Addr, recv func(netsim.Packet)) {
	a.Endpoint.Attach(addr, func(p netsim.Packet) {
		a.arrivals = append(a.arrivals, auditedWire{p.Data, crc32.ChecksumIEEE(p.Data)})
		recv(p)
	})
}

// TestNoConsumerRewritesAnArrival: the simulator hands every receiver of
// a transmission, and every duplicate, the same buffer, so nothing that
// consumes an arrival — the receive path, the stack or the bypass, the
// layers that keep arrival bytes by reference — may write into it. Every
// wire a member is handed is checksummed on arrival and again after the
// run, on a lossy network (duplicates, NAK service, retransmissions),
// with one and three scheduler shards, members draining concurrently.
func TestNoConsumerRewritesAnArrival(t *testing.T) {
	const members, rounds = 4, 3
	castSizes := []int{100, 9000, 20000}
	for _, tc := range []struct {
		name      string
		names     []string
		mode      stack.Mode
		optimized bool
	}{
		{"stack10/func", layers.Stack10(), stack.Func, false},
		{"stack10/imp", layers.Stack10(), stack.Imp, false},
		{"stack10/mach", layers.Stack10(), stack.Func, true},
		{"vsync", layers.StackVsync(), stack.Func, false},
		{"stack4", layers.Stack4(), stack.Imp, false},
	} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				c := netsim.NewCluster(7, netsim.Lossy(0.1))
				addrs := make([]event.Addr, members)
				for i := range addrs {
					addrs[i] = event.Addr(i + 1)
				}
				eps := make([]*auditedEndpoint, members)
				ms := make([]*Member, members)
				for i := range eps {
					eps[i] = &auditedEndpoint{Endpoint: c.NewEndpoint(addrs[i])}
					m, err := newMember(eps[i], eps[i], event.NewView("group", 1, addrs, i), tc.names, tc.mode, Handlers{}, tc.optimized)
					if err != nil {
						t.Fatal(err)
					}
					m.Start()
					ms[i] = m
				}
				c.SetShards(shards)
				run := func(d int64) { c.RunConcurrent(c.Sim().Now()+d, members) }
				for i := 0; i < rounds; i++ {
					for r, m := range ms {
						for j, size := range castSizes {
							m.Cast(appPayload('c', r, i*len(castSizes)+j, size))
						}
						if err := m.Send((r+1)%members, appPayload('s', r, i, 9000)); err != nil {
							t.Fatal(err)
						}
					}
					run(int64(20e6))
				}
				leave := slices.Contains(tc.names, layers.Membership)
				if leave {
					ms[members-1].Leave()
				}
				run(int64(30e9))
				if v := ms[0].View(); leave && len(v.Members) != members-1 {
					t.Fatalf("the leave never completed: member 0 is in view %v", v.Members)
				}
				if st := c.Net().Stats(); st.Duplicated == 0 {
					t.Fatalf("no duplicate was delivered: %+v", st)
				}
				for r, ep := range eps {
					if len(ep.arrivals) == 0 {
						t.Fatalf("member %d received nothing", r)
					}
					for k, w := range ep.arrivals {
						if crc32.ChecksumIEEE(w.data) != w.crc {
							t.Fatalf("member %d: arrival %d of %d (%d bytes) was rewritten after it arrived", r, k, len(ep.arrivals), len(w.data))
						}
					}
				}
			})
		}
	}
}
