package native

import (
	"fmt"

	"gcao/internal/runtime"
	"gcao/internal/section"
	"gcao/internal/spmd"
)

// Diff compares a native result against a simulator result bit for bit:
// the canonical images and the scalars both hold (runtime.CompareState),
// and every processor's validity of each element either local box holds,
// in global coordinates (which copies are current is part of the state:
// it decides what later exchanges carry and which reads are stale). It
// returns an error naming the first difference, or the first box of
// either image's lists that breaks their invariants (CheckHulls).
func Diff(nat *RunResult, sim *spmd.RunResult) error {
	for _, mem := range []*runtime.Memory{nat.Mem, sim.Mem} {
		if err := mem.CheckHulls(); err != nil {
			return err
		}
	}
	if err := runtime.CompareState(nat.Mem, sim.Mem, nat.Scalars, sim.Scalars); err != nil {
		return fmt.Errorf("native: native vs simulator: %w", err)
	}
	for _, name := range nat.Mem.Unit.ArrayNames {
		nm, sm := nat.Mem.View(name), sim.Mem.View(name)
		for p := range nm.Data {
			if err := sameValidity(name, p, nm, sm, "native", "simulator"); err != nil {
				return err
			}
			if err := sameValidity(name, p, sm, nm, "simulator", "native"); err != nil {
				return err
			}
		}
	}
	return nil
}

// sameValidity compares processor p's validity of every element a's
// local box holds with b's of the same element, which is invalid where
// b's local box does not hold it.
func sameValidity(name string, p int, a, b *runtime.ArrayMem, an, bn string) error {
	var err error
	lo, hi := make([]int, a.Arr.Rank()), make([]int, a.Arr.Rank())
	for k := range lo {
		lo[k], hi[k] = a.LocalBox(p, k)
	}
	section.Whole(lo, hi).Elems(func(ix []int) bool {
		if got, want := a.ValidAt(p, ix), b.ValidAt(p, ix); got != want {
			err = fmt.Errorf("native: array %q validity differs on processor %d at %v: %s %v vs %s %v", name, p, ix, an, got, bn, want)
		}
		return err == nil
	})
	return err
}
