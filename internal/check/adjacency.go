package check

import (
	"fmt"

	"ensemble/internal/layers"
)

// CheckStack validates a configuration (component names, top first)
// against the components' Above/Below contracts (layers.ContractOf,
// §3.2): it folds guarantees bottom-up, verifying at every boundary that
// the layer above requires nothing the service below does not provide,
// and returns the guarantee set at the top of the stack.
func CheckStack(names []string) ([]layers.Guarantee, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("check: empty stack")
	}
	if names[len(names)-1] != layers.Bottom {
		return nil, fmt.Errorf("check: stack must terminate in %q, got %q", layers.Bottom, names[len(names)-1])
	}
	have := map[layers.Guarantee]bool{}
	for i := len(names) - 1; i >= 0; i-- {
		c, ok := layers.ContractOf(names[i])
		if !ok {
			return nil, fmt.Errorf("check: no Above/Below contract for layer %q", names[i])
		}
		for _, r := range c.Requires {
			if !have[r] {
				return nil, fmt.Errorf(
					"check: layer %q requires %q of the service below it, but the stack %v provides only %v at that boundary",
					names[i], r, names, guaranteeList(have))
			}
		}
		for _, a := range c.Adds {
			have[a] = true
		}
	}
	if !have[layers.GAppInterface] {
		return nil, fmt.Errorf("check: stack %v lacks an application interface layer at the top", names)
	}
	return guaranteeList(have), nil
}

func guaranteeList(have map[layers.Guarantee]bool) []layers.Guarantee {
	var out []layers.Guarantee
	for _, g := range layers.Guarantees() {
		if have[g] {
			out = append(out, g)
		}
	}
	return out
}
