package native_test

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/native"
	"gcao/internal/plan"
	"gcao/internal/refeval"
	"gcao/internal/spmd"
)

// settled counts the statements lowering lets settle at a later
// global-sum group instead of at themselves.
func settled(prog *plan.Program) int {
	n := 0
	var walk func(nodes []plan.Node)
	walk = func(nodes []plan.Node) {
		for _, nd := range nodes {
			switch nd := nd.(type) {
			case *plan.Stmt:
				if nd.Settle != nil {
					n++
				}
			case *plan.Loop:
				walk(nd.Body)
			case *plan.If:
				walk(nd.Then)
				walk(nd.Else)
			}
		}
	}
	walk(prog.Body)
	return n
}

// requireAgreement holds a native run against the simulator (values,
// validity planes, scalars) and against the reference evaluator.
func requireAgreement(t *testing.T, res *core.Result, p int) {
	t.Helper()
	sim, err := spmd.RunParallel(res, machine.SP2(), p, 0)
	if err != nil {
		t.Fatalf("simulator: %v", err)
	}
	nat, err := native.Run(res, p)
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	if err := native.Diff(nat, sim); err != nil {
		t.Fatal(err)
	}
	ref, err := refeval.Run(res.Analysis)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if err := ref.Check(nat.Mem, nat.Scalars); err != nil {
		t.Error(err)
	}
}

// TestNativeSplitSumEdgeCases: the shapes a SUM split into a gather at its
// statement and a settle at a global-sum group has to get right, under
// every version at P ∈ {1, 4, 13, 16}, with how many statements lowering
// deferred under orig, nored and comb pinned, so a case cannot pass by
// settling everything in place.
func TestNativeSplitSumEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		settled   [3]int
	}{
		// comb places the group after x = 3: deferring u would read the
		// new x, so u settles at itself there; nored's group follows u.
		{"scalar-written-before-group", `
routine r(n)
real b(n)
real u, x
!hpf$ distribute (block) :: b
do i = 1, n
b(i) = i * 0.5
enddo
x = 1
u = 2 * sum(b(1:n)) + x
x = 3
end
`, [3]int{0, 1, 0}},
		// u = 5 reads nothing of u, so the group may follow it: deferred,
		// the sum would overwrite the 5 the source leaves in u.
		{"target-assigned-before-group", `
routine r(n)
real b(n)
real u, v
!hpf$ distribute (block) :: b
do i = 1, n
b(i) = i
enddo
u = sum(b(1:n))
u = 5
v = u
end
`, [3]int{0, 1, 0}},
		// A SUM in a condition settles at the condition; the statement
		// before it at its group, ahead of the branch.
		{"sum-in-condition", `
routine r(n)
real a(n)
real s, x
!hpf$ distribute (block) :: a
do i = 1, n
a(i) = i
enddo
x = 0
s = sum(a(1:n))
if (sum(a(2:n)) > s - 2) then
x = s
endif
end
`, [3]int{1, 1, 1}},
		// comb combines the broadcasts of a(2) and c(2) ahead of z, before
		// the global-sum group: deferred, a(2) = ... would broadcast the
		// value it replaces.
		{"target-moved-before-group", `
routine r(n)
real a(n), b(n), c(n)
real y, z
!hpf$ distribute (block) :: a, b, c
do i = 1, n
a(i) = i
b(i) = 2 * i
c(i) = 3 * i
enddo
a(2) = sum(b(1:n))
z = c(2)
y = a(2) + z
end
`, [3]int{1, 1, 0}},
		// orig and nored give each SUM a group of its own, so the statement
		// settles at itself; comb combines them.
		{"two-sums-one-statement", `
routine r(n)
real a(n), b(n)
real u, v
!hpf$ distribute (block) :: a, b
do i = 1, n
a(i) = i
b(i) = n - i
enddo
u = sum(a(1:n)) * sum(b(2:n))
v = u + 1
end
`, [3]int{0, 0, 1}},
	} {
		for i, v := range versions {
			for _, p := range []int{1, 4, 13, 16} {
				t.Run(fmt.Sprintf("%s/%s/P%d", tc.name, v, p), func(t *testing.T) {
					res := placeSrcAs(t, tc.src, map[string]int{"n": 20}, p, v)
					if got := settled(plan.Lower(res)); got != tc.settled[i] {
						t.Errorf("%d statements settle at a later group, want %d:\n%s", got, tc.settled[i], plan.Lower(res).Listing())
					}
					requireAgreement(t, res, p)
				})
			}
		}
	}
	// Four gathers in flight at once, on one core.
	t.Run("gravity/comb/P64/GOMAXPROCS=1", func(t *testing.T) {
		defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
		pr, err := bench.ByName("gravity", "main")
		if err != nil {
			t.Fatal(err)
		}
		res := place(t, pr, 16, 64, core.VersionCombine)
		if got := settled(plan.Lower(res)); got != 8 {
			t.Errorf("%d statements settle at a later group, want all 8", got)
		}
		requireAgreement(t, res, 64)
	})
}

// TestNativeReuseAfterFailedSplitSum: a run that fails after a SUM's
// gather and before the global-sum group it settles at — an out-of-range
// subscript in the statement between — leaves an engine whose next run
// equals a fresh engine's.
func TestNativeReuseAfterFailedSplitSum(t *testing.T) {
	const src = `
routine r(n)
real a(n), b(n)
real s, t, u
!hpf$ distribute (block) :: a, b
do i = 1, n
a(i) = i
b(i) = 2 * i
enddo
s = sum(a(1:n))
b(3) = 7
t = sum(b(1:n))
u = s + t
end
`
	for _, p := range []int{4, 16} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			res := placeSrc(t, src, map[string]int{"n": 20}, p)
			eng, err := native.NewEngine(res, p)
			if err != nil {
				t.Fatal(err)
			}
			prog := native.ProgramOf(eng)
			if got := settled(prog); got != 2 {
				t.Fatalf("%d statements settle at the group, want s and t:\n%s", got, prog.Listing())
			}
			var store *plan.Stmt
			for _, n := range prog.Body {
				if st, ok := n.(*plan.Stmt); ok && st.LHS != nil {
					store = st
				}
			}
			sub := &store.LHS.Subs[0].Const
			*sub += 20
			if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "subscript 23 of dimension 1 outside the declared 1:20") {
				t.Fatalf("b(23) = 7 between the gathers and the group: run returned %v", err)
			}
			*sub -= 20
			out, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := native.Run(res, p)
			if err != nil {
				t.Fatal(err)
			}
			requireSameImage(t, "the run after the failed one", out.Mem, fresh.Mem, out.Scalars, fresh.Scalars)
			if g, w := out.Stats, fresh.Stats; g.Messages != w.Messages || g.WireBytes != w.WireBytes || g.Collectives != w.Collectives {
				t.Errorf("stats %+v, a fresh engine's %+v", g, w)
			}
		})
	}
}
