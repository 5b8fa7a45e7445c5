package bench

import (
	"fmt"
	"strings"

	"ensemble/internal/deploy"
	"ensemble/internal/obs"
)

// The causal-latency harness: run the chained workload on the netsim
// reference cluster, reconstruct every message's causal chain from the
// flight dump (obs.SpansFromDump), and report where the time went —
// submit-to-wire on the origin, wire transit, receive-to-delivery on
// each member, and the end-to-end figure. Under the total-order stack
// even the origin's own delivery waits for the sequencer round trip,
// so the self column is a real latency, not a shortcut.

// SpanReconProbe runs the members-rank netsim reference workload and
// reconstructs its causal spans. Every delivered message must map to a
// complete chain (stats.Complete == stats.Spans) on a loss-free run
// (TestSpanReconComplete).
func SpanReconProbe(members, rounds, size int, seed int64) (obs.SpanStats, error) {
	ref, err := deploy.Reference(deploy.Workload{Members: members, Rounds: rounds, Size: size, Seed: seed})
	if err != nil {
		return obs.SpanStats{}, err
	}
	_, stats, err := obs.SpansFromDump(ref.Flight)
	return stats, err
}

// LatencyTable renders the per-hop causal latency percentiles of a
// netsim reference run, plus the members' own histogram view of the
// same traffic (lat/e2e_ns from the registry) as a cross-check: two
// independent instruments — flight-dump reconstruction after the fact,
// zero-alloc histogram sampling in the hot path — measuring one run.
func LatencyTable(members, rounds, size int, seed int64) (string, error) {
	ref, err := deploy.Reference(deploy.Workload{Members: members, Rounds: rounds, Size: size, Seed: seed})
	if err != nil {
		return "", err
	}
	spans, stats, err := obs.SpansFromDump(ref.Flight)
	if err != nil {
		return "", err
	}
	lat := obs.CollectHopLatencies(spans)

	var b strings.Builder
	fmt.Fprintf(&b, "Causal latency, %d members x %d rounds (virtual ns, netsim reference):\n",
		members, rounds)
	fmt.Fprintf(&b, "spans %d, complete %d (missing: cast %d, deliver %d, wire %d)\n",
		stats.Spans, stats.Complete, stats.MissingCast, stats.MissingDeliver, stats.MissingWire)
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %8s\n", "hop", "p50", "p90", "p99", "n")
	row := func(name string, vals []int64) {
		if len(vals) == 0 {
			fmt.Fprintf(&b, "%-8s %12s %12s %12s %8d\n", name, "-", "-", "-", 0)
			return
		}
		fmt.Fprintf(&b, "%-8s %12d %12d %12d %8d\n",
			name,
			obs.SpanQuantile(vals, 50, 100),
			obs.SpanQuantile(vals, 90, 100),
			obs.SpanQuantile(vals, 99, 100),
			len(vals))
	}
	row("submit", lat.Submit)
	row("wire", lat.Wire)
	row("recv", lat.Recv)
	row("e2e", lat.E2E)
	row("self", lat.Self)

	// The members' own zero-alloc histograms over the same run. The
	// histogram quantile reports its bucket's upper edge (≤12.5% high),
	// so the two instruments agree to bucket resolution, not exactly.
	fmt.Fprintf(&b, "\nMember histograms (lat/e2e_ns, own casts, bucket upper edge):\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %8s\n", "member", "p50", "p90", "p99", "n")
	for r := 0; r < members; r++ {
		pre := fmt.Sprintf("member%d/lat/e2e_ns/", r)
		n, ok := ref.Metrics.Get(pre + "count")
		if !ok {
			continue
		}
		p50, _ := ref.Metrics.Get(pre + "p50")
		p90, _ := ref.Metrics.Get(pre + "p90")
		p99, _ := ref.Metrics.Get(pre + "p99")
		fmt.Fprintf(&b, "%-8d %12d %12d %12d %8d\n", r, p50, p90, p99, n)
	}
	return b.String(), nil
}
