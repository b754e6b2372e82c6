package dep_test

import (
	"fmt"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/dep"
	"gcao/internal/parser"
	"gcao/internal/sem"
)

// TestClassMemoMatchesFresh: a remembering analysis answers IsArrayDep
// once per class of (def, use) pair; every regular def and use of one
// array must get, at every level, the answer the table-less analysis
// computes for that very pair — on the six Fig. 10(a) routines, random
// programs at two bindings and StencilNests, whose sibling nests share
// classes.
func TestClassMemoMatchesFresh(t *testing.T) {
	type routine struct {
		name string
		u    *sem.Unit
	}
	var routines []routine
	add := func(name, src string, params map[string]int, procs int) {
		r, err := parser.ParseRoutine(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		u, err := sem.Analyze(r, params, sem.Options{Procs: procs})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		routines = append(routines, routine{name, u})
	}
	for _, pr := range bench.Programs() {
		add(pr.Bench+"/"+pr.Routine, pr.Source, pr.Params(pr.DefaultN), 25)
	}
	for seed := int64(0); seed < 20; seed++ {
		for _, n := range []int{8, 13} {
			add(fmt.Sprintf("random %d n=%d", seed, n), bench.RandomProgram(seed), map[string]int{"n": n, "steps": 2}, 4)
		}
	}
	add("nests k=40", bench.StencilNests(40, 3), map[string]int{"n": 64, "steps": 2}, 16)
	for _, n := range []int{8, 9} {
		add(fmt.Sprintf("shadowed n=%d", n), shadowedSrc, map[string]int{"n": n}, 4)
	}

	pairs, evals, shared := 0, 0, false
	for _, r := range routines {
		sk, err := core.NewSkeleton(r.u, nil)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		memo, fresh := dep.New(r.u), &dep.Analysis{Unit: r.u, Forms: sk.Forms}
		memo.Forms = sk.Forms
		n := 0
		for _, d := range sk.SSA.Defs {
			for _, use := range sk.SSA.Uses {
				if use.Var != d.Var {
					continue
				}
				n++
				if dirs, ok := fresh.Directions(d.Stmt, d.LHS, use.Stmt, use.Ref); ok && dirs == nil {
					t.Errorf("%s: Directions(%s, %s) is feasible and nil", r.name, d, use)
				}
				for level := 0; level <= use.Stmt.NL()+1; level++ {
					if got, want := memo.IsArrayDep(d, use, level), fresh.IsArrayDep(d, use, level); got != want {
						t.Errorf("%s: IsArrayDep(%s, %s, %d) = %v from the class memo, %v fresh", r.name, d, use, level, got, want)
					}
				}
			}
		}
		if memo.Evaluations() > n || fresh.Evaluations() != 0 {
			t.Errorf("%s: %d pairs, %d evaluations remembered, %d by the table-less analysis", r.name, n, memo.Evaluations(), fresh.Evaluations())
		}
		shared = shared || n >= 4*memo.Evaluations() && memo.Evaluations() > 0
		pairs += n
		evals += memo.Evaluations()
	}
	if pairs == 0 || !shared {
		t.Fatalf("%d pairs, %d evaluations: no routine shares a class", pairs, evals)
	}
	t.Logf("%d routines: %d pairs answered by %d Directions evaluations", len(routines), pairs, evals)
}

// shadowedSrc rebinds a loop variable inside its own loop beside a
// sibling that binds another name at the same depth, runs two loops that
// differ only in their lower bound, strides two sibling loops apart and
// mixes parameter, constant and non-affine subscripts: a class names a
// variable by every depth that binds it and carries the binding loop's
// bounds.
const shadowedSrc = `
routine shadowed(n)
real a(n, n), b(n, n)
!hpf$ distribute (block, block) :: a, b
do it = 1, 2
do i = 1, n
do j = 1, n, 2
do i = 2, n - 1
a(i, j) = b(i - 1, j) + a(i, j + 1) + a(n - i, j)
enddo
do k = 2, n - 1
a(k, j) = b(k, j)
enddo
b(i, j) = a(i + 1, j) + a(2, j) + b(i, n)
enddo
do j = 2, n, 2
b(i, j) = a(i, j - 1) + a(i * j, 3) + b(i, j - 1)
enddo
enddo
do m = 2, n
b(m, 1) = a(m, 1)
enddo
do m = 1, n
b(m, 1) = a(m, 2)
enddo
a(1, 3) = b(1, 1)
enddo
end
`
