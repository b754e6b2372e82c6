package plan_test

import (
	"fmt"
	"strings"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/plan"
)

// TestLoweredTermsCapped: lowering carves the terms of every affine form
// and every list a Program keeps from slabs, side by side, so each must be
// capped at its length — else an append to one (localize, the row form)
// would write over the one carved next to it. Likewise every plane of a
// memory image, carved from one slab per image, and every table and
// scratch slice of a frame, carved from one slab per element type.
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
		fr, err := prog.NewFrame(0, mem)
		if err != nil {
			t.Fatal(err)
		}
		plan.FrameLists(fr, func(what string, n, c int) {
			if c != n {
				t.Errorf("%s: a frame's %s has %d elements and room for %d", name, what, n, c)
			}
		})
	}
	for _, what := range []string{"node list", "SUM list", "op list", "entry list", "slot list", "clamp", "nest loops", "nest slots", "nest proofs", "read list", "row ops"} {
		if !walked[what] {
			t.Errorf("no routine holds a non-empty %s to check", what)
		}
	}
}

// TestLowerAllocations pins what lowering allocates — a function of the
// program, not of its expressions — at 1.25× the count measured once the
// array layout was carved from one slab per element type and a reference's
// offset folded on a stack, on sim-verify's hydflo/flux (103; 169 once
// every list a Program keeps was popped from a stack into a slab sized by
// the CFG's and the placement's counts, 283 while node lists grew by
// append, 363 before communication positions and nest lists were carved,
// 659 while expressions were closures, 3,383 when every expression
// allocated) and on native-comm's shallow (111; 196; 250; 284; 498; 2,116).
func TestLowerAllocations(t *testing.T) {
	for _, tc := range []struct {
		bench, routine string
		params         map[string]int
		procs          int
		budget         float64
	}{
		{"hydflo", "flux", map[string]int{"n": 16, "steps": 4}, 16, 129},
		{"shallow", "main", map[string]int{"n": 16, "steps": 40}, 16, 139},
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

// stencilOf returns a routine over k arrays of n × n, BLOCK by BLOCK, each
// updated from two neighbours of the next one, scaled by a scalar.
func stencilOf(k int) string {
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	src := "routine m(n)\nreal " + strings.Join(names, "(n, n), ") + "(n, n), s\n!hpf$ distribute (block, block) :: " + strings.Join(names, ", ") + "\ns = 0.5\n"
	for i, a := range names {
		b := names[(i+1)%k]
		src += fmt.Sprintf("do i = 2, n - 1\ndo j = 2, n - 1\n%s(i, j) = s * (%s(i-1, j) + %s(i, j+1))\nenddo\nenddo\n", a, b, b)
	}
	return src + "end\n"
}

// TestNewFrameAllocatesByType: a frame is carved from one slab per element
// type, so what NewFrame allocates does not depend on how many arrays the
// program has or how many processors run it.
func TestNewFrameAllocatesByType(t *testing.T) {
	count := -1.0
	for _, k := range []int{2, 12} {
		for _, p := range []int{4, 16} {
			prog := plan.Lower(placeSrc(t, stencilOf(k), map[string]int{"n": 16}, p))
			mem := prog.Plan.Layout.NewMemory()
			n := testing.AllocsPerRun(10, func() { newFrame(t, prog, p-1, mem) })
			if count >= 0 && n != count {
				t.Errorf("a frame of %d arrays on %d processors allocates %v objects, %v elsewhere", k, p, n, count)
			}
			count = n
		}
	}
	t.Logf("%v allocations a frame", count)
}
