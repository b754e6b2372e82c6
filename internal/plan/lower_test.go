package plan_test

import (
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/plan"
)

// TestLoweredTermsCapped: lowering carves the terms of every affine form
// and every list a Program keeps from slabs, side by side, so each must be
// capped at its length — else an append to one (localize, the row form)
// would write over the one carved next to it. Likewise every plane of a
// memory image, carved from one slab per array.
func TestLoweredTermsCapped(t *testing.T) {
	walked := map[string]bool{} // the lists of each kind that were not all empty
	for _, pr := range bench.Programs() {
		name := pr.Bench + "/" + pr.Routine
		a, err := pr.Compile(pr.DefaultN, 16)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Place(core.Options{Version: core.VersionCombine})
		if err != nil {
			t.Fatal(err)
		}
		prog, forms := plan.Lower(res), 0
		plan.Forms(prog, func(where string, f *plan.Affine) {
			if forms++; cap(f.Terms) != len(f.Terms) {
				t.Errorf("%s: a %s has %d terms and room for %d", name, where, len(f.Terms), cap(f.Terms))
			}
		})
		if forms == 0 {
			t.Errorf("%s: no affine form walked", name)
		}
		plan.Lists(prog, func(what string, n, c int) {
			if walked[what] = walked[what] || n > 0; c != n {
				t.Errorf("%s: a %s has %d elements and room for %d", name, what, n, c)
			}
		})
		mem := prog.Plan.Layout.NewMemory()
		for _, am := range mem.Arrays {
			for p, plane := range am.Data {
				if cap(plane) != len(plane) {
					t.Errorf("%s: processor %d's plane of %s has %d elements and room for %d", name, p, am.Name, len(plane), cap(plane))
				}
			}
		}
	}
	for _, what := range []string{"node list", "SUM list", "op list", "entry list", "slot list", "clamp", "nest loops", "nest slots", "nest proofs", "read list", "row ops"} {
		if !walked[what] {
			t.Errorf("no routine holds a non-empty %s to check", what)
		}
	}
}

// TestLowerAllocations pins what lowering allocates — a function of the
// program, not of its expressions — at 1.25× the count measured once every
// list a Program keeps was popped from a stack into a slab sized by the
// CFG's and the placement's counts, on sim-verify's hydflo/flux (169; 283
// while node lists grew by append, 363 before communication positions and
// nest lists were carved, 659 while expressions were closures, 3,383 when
// every expression allocated) and on native-comm's shallow (196; 250;
// 284; 498; 2,116).
func TestLowerAllocations(t *testing.T) {
	for _, tc := range []struct {
		bench, routine string
		params         map[string]int
		procs          int
		budget         float64
	}{
		{"hydflo", "flux", map[string]int{"n": 16, "steps": 4}, 16, 211},
		{"shallow", "main", map[string]int{"n": 16, "steps": 40}, 16, 245},
	} {
		pr, err := bench.ByName(tc.bench, tc.routine)
		if err != nil {
			t.Fatal(err)
		}
		res := placeSrc(t, pr.Source, tc.params, tc.procs)
		n := testing.AllocsPerRun(10, func() { plan.Lower(res) })
		if n > tc.budget {
			t.Errorf("lowering %s/%s allocates %v objects, budget %v", tc.bench, tc.routine, n, tc.budget)
		} else {
			t.Logf("%s/%s: %v allocations a lowering", tc.bench, tc.routine, n)
		}
	}
}
