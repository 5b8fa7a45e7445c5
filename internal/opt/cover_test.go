package opt_test

import (
	"fmt"
	"testing"

	"ensemble/internal/bench"
	"ensemble/internal/ir"
	"ensemble/internal/layers"
	"ensemble/internal/opt"
)

// TestEveryStackComposesItsCast: a cast's self-delivery copy either
// composes through the layers above local or the rank has no cast bypass
// at all, so every stack a member runs must compose its cast at every
// rank kind — the sequencer, the first non-sequencer and the last rank —
// at every group size the benchmarks use.
func TestEveryStackComposesItsCast(t *testing.T) {
	stacks := map[string][]string{
		"Stack4":     layers.Stack4(),
		"StackFifo":  layers.StackFifo(),
		"Stack10":    layers.Stack10(),
		"StackVsync": layers.StackVsync(),
		"ScaleStack": bench.ScaleStack(),
	}
	for name, names := range stacks {
		for _, n := range []int{2, 8, 64} {
			for _, rank := range []int{0, 1, n - 1} {
				t.Run(fmt.Sprintf("%s/n%d/rank%d", name, n, rank), func(t *testing.T) {
					if _, err := opt.ComposeDn(names, ir.DnCast, rank, n); err != nil {
						t.Fatalf("no cast bypass: %v", err)
					}
				})
			}
		}
	}
}
