// Failover: virtual synchrony under process failure. A group of four
// runs the membership stack; one member crashes mid-stream. The failure
// detector suspects it, the coordinator flushes the view (members stop
// sending and exchange receive vectors until every survivor holds the
// same casts), and a new view installs with a rebuilt protocol stack —
// Ensemble's "switching protocol stacks on the fly". Messages submitted
// during the flush are buffered and delivered in the next view, so the
// application never loses its own traffic.
package main

import (
	"fmt"

	"ensemble"
)

func main() {
	const members = 4
	deliveries := make([]int, members)
	views := make([][]string, members)

	group, err := ensemble.NewGroup(members, ensemble.LossyNet(0.05), 11,
		ensemble.StackVsync(), ensemble.Imp,
		func(rank int) ensemble.Handlers {
			return ensemble.Handlers{
				OnCast: func(origin int, payload []byte) { deliveries[rank]++ },
				OnView: func(v *ensemble.View) {
					views[rank] = append(views[rank], v.String())
					fmt.Printf("member %d installed %v\n", rank, v)
				},
				OnBlock: func() {
					fmt.Printf("member %d blocked for view change\n", rank)
				},
				OnSuspect: func(ranks []int) {
					fmt.Printf("member %d suspects %v\n", rank, ranks)
				},
			}
		})
	if err != nil {
		panic(err)
	}

	// A steady multicast stream from every member; member 3 falls silent
	// when it crashes at t=2s.
	crashed := false
	for i := 0; i < 30; i++ {
		i := i
		for r, m := range group.Members {
			r, m := r, m
			group.Do(r, int64(i)*200e6, func() {
				if r == 3 && crashed {
					return
				}
				m.Cast([]byte(fmt.Sprintf("tick %d from %d", i, r)))
			})
		}
	}
	group.Run(int64(2e9))

	// Member 3 crashes two seconds in: it stops sending and drops off
	// the network.
	fmt.Println("--- member 3 crashes ---")
	crashed = true
	group.Cluster.Net().Detach(group.Members[3].Addr())
	group.Run(int64(38e9))

	fmt.Println()
	for r := 0; r < 3; r++ {
		fmt.Printf("member %d: %d casts delivered, final view %v\n",
			r, deliveries[r], group.Members[r].View())
	}
	v0 := group.Members[0].View()
	for r := 1; r < 3; r++ {
		if group.Members[r].View().ID != v0.ID {
			panic("survivors disagree on the final view")
		}
	}
	if v0.N() != 3 {
		panic(fmt.Sprintf("final view has %d members, want 3", v0.N()))
	}
	fmt.Println("survivors agree on the post-failure view; the group kept running")
}
