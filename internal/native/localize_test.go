package native_test

import (
	"errors"
	"fmt"
	"reflect"
	"regexp"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/native"
	"gcao/internal/parser"
	"gcao/internal/plan"
	"gcao/internal/refeval"
	"gcao/internal/runtime"
	"gcao/internal/sem"
	"gcao/internal/spmd"
)

func placeSrc(t *testing.T, src string, params map[string]int, procs int) *core.Result {
	t.Helper()
	return placeSrcAs(t, src, params, procs, core.VersionCombine)
}

func placeSrcAs(t *testing.T, src string, params map[string]int, procs int, v core.Version) *core.Result {
	t.Helper()
	r, err := parser.ParseRoutine(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u, err := sem.Analyze(r, params, sem.Options{Procs: procs})
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	a, err := core.NewAnalysis(u)
	if err != nil {
		t.Fatalf("analysis: %v", err)
	}
	res, err := a.Place(core.Options{Version: v})
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	return res
}

// localized summarizes what lowering decided: how many loops root a
// pure owner-computes nest, how many loops got per-processor bounds,
// and how many statements inside pure nests kept their ownership guard.
type localized struct{ nests, clamped, guarded int }

func lower(res *core.Result, procs int) localized {
	var out localized
	var walk func(nodes []plan.Node, inNest bool)
	walk = func(nodes []plan.Node, inNest bool) {
		for _, n := range nodes {
			switch n := n.(type) {
			case *plan.Loop:
				if n.Nest != nil {
					out.nests++
				}
				if n.Clamp != nil {
					out.clamped++
				}
				walk(n.Body, inNest || n.Nest != nil)
			case *plan.If:
				walk(n.Then, inNest)
				walk(n.Else, inNest)
			case *plan.Stmt:
				if inNest && n.Guard {
					out.guarded++
				}
			}
		}
	}
	walk(plan.Lower(res).Body, false)
	return out
}

const stencil2D = `
routine st(n)
real a(n, n), b(n, n)
!hpf$ distribute (block, block) :: a, b
do i = 1, n
do j = 1, n
a(i, j) = i * 10 + j
b(i, j) = 0
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
b(i, j) = 0.25 * (a(i - 1, j) + a(i + 1, j) + a(i, j - 1) + a(i, j + 1))
enddo
enddo
end
`

// TestNativeLocalizationEdgeCases runs, against the simulator (values,
// validity planes and scalars), the shapes owner-computes localization
// has to get right, and pins what lowering decided for each so a case
// cannot pass by silently falling back to the guarded walk — or by
// localizing a nest one of the purity rules forbids.
func TestNativeLocalizationEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		params map[string]int
		procs  int
		want   localized
	}{
		{"uneven-blocks", stencil2D, map[string]int{"n": 50}, 16, localized{2, 4, 0}},
		{"more-procs-than-rows", stencil2D, map[string]int{"n": 3}, 25, localized{2, 4, 0}},
		{"negative-step", `
routine r(n)
real a(n, n), b(n, n)
!hpf$ distribute (block, block) :: a, b
do i = n, 1, -1
do j = 1, n
a(i, j) = i - j
b(i, j) = 1
enddo
enddo
do i = n - 1, 2, -1
do j = n - 1, 2, -1
b(i, j) = a(i, j - 1) + a(i + 1, j)
enddo
enddo
end
`, map[string]int{"n": 13}, 9, localized{2, 4, 0}},
		{"zero-trip", `
routine r(n)
real a(n, n)
real x
integer i
!hpf$ distribute (block, block) :: a
do i = 1, n
do j = 1, n
a(i, j) = 1
enddo
enddo
do i = 5, 4
do j = 1, n
a(i, j) = 99
enddo
enddo
do i = 1, n
do j = 3, 2
a(i, j) = 77
enddo
enddo
x = i
end
`, map[string]int{"n": 8}, 4, localized{3, 6, 0}},
		{"offset-lhs", `
routine r(n)
real a(n), b(n)
!hpf$ distribute (block) :: a, b
do i = 1, n
a(i) = 0
b(i) = i
enddo
do i = 1, n - 1
a(i + 1) = b(i) * 2
enddo
end
`, map[string]int{"n": 21}, 4, localized{2, 2, 0}},
		{"two-offsets-one-body", `
routine r(n)
real a(n), b(n), c(n)
!hpf$ distribute (block) :: a, b, c
do i = 1, n
a(i) = 0
b(i) = 0
c(i) = i
enddo
do i = 2, n - 1
a(i) = c(i)
b(i + 1) = c(i) + 1
enddo
end
`, map[string]int{"n": 21}, 4, localized{2, 2, 2}},
		{"loop-variable-after-loop", `
routine r(n)
real a(n), c(n, n)
real x, y
integer i, j
!hpf$ distribute (block) :: a
!hpf$ distribute (block, block) :: c
do i = 1, n
a(i) = i
enddo
x = i
do i = 1, n
do j = 1, n - 2
c(i, j) = i + j
enddo
enddo
y = i * 100 + j
end
`, map[string]int{"n": 6}, 9, localized{2, 3, 0}},
		{"cyclic-block", `
routine r(n)
real a(n, n), b(n, n)
!hpf$ distribute (cyclic, block) :: a, b
do i = 1, n
do j = 1, n
a(i, j) = i + 2 * j
b(i, j) = 0
enddo
enddo
do i = 1, n
do j = 2, n - 1
b(i, j) = a(i, j - 1) + a(i, j + 1)
enddo
enddo
end
`, map[string]int{"n": 10}, 4, localized{2, 2, 3}},
		{"star-dimension", `
routine r(n)
real g(n, n, n)
!hpf$ distribute (*, block, block) :: g
do j = 1, n
do k = 1, n
do i = 1, n
g(i, j, k) = i + j * k
enddo
enddo
enddo
end
`, map[string]int{"n": 7}, 4, localized{1, 2, 0}},

		// One case per purity rule: the loop named in the comment must
		// not root a pure nest.
		{"reject-comm-inside", `
routine r(n, steps)
real a(n), b(n)
!hpf$ distribute (block) :: a, b
do i = 1, n
a(i) = i
b(i) = 0
enddo
do it = 1, steps
do i = 2, n
b(i) = a(i - 1)
enddo
do i = 1, n
a(i) = b(i)
enddo
enddo
end
`, map[string]int{"n": 12, "steps": 2}, 4, localized{3, 3, 0}}, // "do it" is not a nest; its two inner loops are
		{"reject-distributed-sum", `
routine r(n)
real a(n, n), b(n)
!hpf$ distribute (block, block) :: a
!hpf$ distribute (block) :: b
do i = 1, n
do j = 1, n
a(i, j) = i + j
enddo
enddo
do i = 1, n
b(i) = sum(a(i, 1:n))
enddo
end
`, map[string]int{"n": 8}, 4, localized{1, 2, 0}},
		{"reject-replicated-store", `
routine r(n)
real a(n), q(n)
!hpf$ distribute (block) :: a
do i = 1, n
q(i) = i * 2
enddo
do i = 1, n
a(i) = q(i)
enddo
end
`, map[string]int{"n": 8}, 4, localized{1, 1, 0}},
		{"reject-branch", `
routine r(n)
real a(n)
real x
!hpf$ distribute (block) :: a
x = 3
do i = 1, n
a(i) = 0
if (x > i) then
a(i) = 1
endif
enddo
end
`, map[string]int{"n": 8}, 4, localized{0, 0, 0}},
		{"reject-scalar-assignment", `
routine r(n)
real a(n)
real x
!hpf$ distribute (block) :: a
do i = 1, n
x = i * 2
a(i) = x
enddo
end
`, map[string]int{"n": 8}, 4, localized{0, 0, 0}},
		{"reject-stride", `
routine r(n)
real a(n)
!hpf$ distribute (block) :: a
do i = 1, n
a(i) = 0
enddo
do i = 1, n, 2
a(i) = i
enddo
end
`, map[string]int{"n": 9}, 4, localized{1, 1, 0}},
		{"reject-triangular-bounds", `
routine r(n)
real c(n, n)
!hpf$ distribute (block, block) :: c
do i = 1, n
do j = i, n
c(i, j) = i * j
enddo
enddo
end
`, map[string]int{"n": 9}, 4, localized{1, 1, 1}}, // only "do j" is a nest; c's first dimension stays guarded
		{"reject-diagonal", `
routine r(n)
real c(n, n)
!hpf$ distribute (block, block) :: c
do i = 1, n
do j = 1, n
c(i, j) = 0
enddo
enddo
do i = 1, n
c(i, i) = 1
enddo
end
`, map[string]int{"n": 9}, 4, localized{1, 2, 0}},
		// mod on both of its paths, in a row kernel and on the tree: integral
		// operands of either sign (the exact one, zero remainders of a
		// negative x among them), fractional ones and a zero divisor.
		{"mod-negative-and-fractional", `
routine r(n)
real a(n, n), b(n, n)
real s
!hpf$ distribute (block, block) :: a, b
do i = 1, n
do j = 1, n
a(i, j) = mod(i - 2 * j, 3) + mod(6 - 3 * i, 0 - 3) * 0.5
b(i, j) = mod(i * 0.75 - j, 0 - 1.25) + mod(0 - 7.5, j) + mod(j - i, i - 3)
enddo
enddo
s = mod(0 - 9, 4) + mod(0 - 8, 4) + mod(0 - 2.5, 0.75)
end
`, map[string]int{"n": 9}, 4, localized{1, 2, 0}},
		// A 1-D array shifts over its own grid of P processors, not the
		// square one the unit's 2-D array makes.
		{"mixed-rank-grids-p4", mixedRankGrids, map[string]int{"n": 32}, 4, localized{3, 4, 0}},
		{"mixed-rank-grids-p16", mixedRankGrids, map[string]int{"n": 32}, 16, localized{3, 4, 0}},
		{"reject-misaligned-read-of-written", `
routine r(n)
real a(n), b(n)
!hpf$ distribute (block) :: a, b
do i = 1, n
a(i) = i
b(i) = 0
enddo
do i = 2, n
a(i) = b(i) + 1
b(i - 1) = a(i) * 2
enddo
end
`, map[string]int{"n": 12}, 4, localized{1, 1, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := placeSrc(t, tc.src, tc.params, tc.procs)
			if got := lower(res, tc.procs); got != tc.want {
				t.Errorf("lowering decided %+v, want %+v", got, tc.want)
			}
			if err := native.VerifyAgainstSimulator(res, machine.SP2(), tc.procs); err != nil {
				t.Fatal(err)
			}
			// Both backends run the same lowered form: agreement between
			// them says nothing about lowering itself, the reference does.
			ref, err := refeval.Run(res.Analysis)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			nat, err := native.Run(res, tc.procs)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Check(nat.Mem, nat.Scalars); err != nil {
				t.Error(err)
			}
		})
	}
	// An operand that fails inside a row loop: the row is handed to the
	// tree, which reports the operand at its statement, not at the loop.
	t.Run("unbound-scalar-in-nest", func(t *testing.T) {
		res := placeSrc(t, unboundInNest, map[string]int{"n": 8}, 4)
		if got := lower(res, 4); got != (localized{1, 2, 0}) {
			t.Errorf("lowering decided %+v", got)
		}
		if rows := rowLoops(res, 4); rows != 1 {
			t.Errorf("%d row loops, want 1", rows)
		}
		_, err := native.Run(res, 4)
		if want := regexp.MustCompile(`^native: processor \d at 9:1: 9:21: unbound scalar "x"$`); err == nil || !want.MatchString(err.Error()) {
			t.Errorf("run returned %v, want %v", err, want)
		}
	})
}

// mixedRankGrids distributes c and d over a 1-D grid of all processors
// beside a 2-D a, for which the unit's grid is square: c's exchange moves
// between neighbours on c's grid.
const mixedRankGrids = `
routine r(n)
real a(n, n), c(n), d(n)
!hpf$ distribute (block, block) :: a
!hpf$ distribute (block) :: c, d
do i = 1, n
do j = 1, n
a(i, j) = i + j
enddo
enddo
do i = 1, n
c(i) = i * 3
d(i) = 0
enddo
do i = 2, n - 1
d(i) = c(i - 1) + c(i + 1)
enddo
end
`

// unboundInNest reads a scalar nothing assigns, in the second statement
// of a row loop's body.
const unboundInNest = `
routine r(n)
real a(n, n), b(n, n)
real x
!hpf$ distribute (block, block) :: a, b
do i = 1, n
do j = 1, n
a(i, j) = 1
b(i, j) = a(i, j) + x
enddo
enddo
end
`

// rowLoops counts the loops lowering marked as row loops.
func rowLoops(res *core.Result, procs int) (loops int) {
	var walk func(nodes []plan.Node)
	walk = func(nodes []plan.Node) {
		for _, n := range nodes {
			switch n := n.(type) {
			case *plan.Loop:
				if n.Row != nil {
					loops++
				}
				walk(n.Body)
			case *plan.If:
				walk(n.Then)
				walk(n.Else)
			}
		}
	}
	walk(plan.Lower(res).Body)
	return loops
}

// TestRowQualificationNegatives: the loops a row kernel must not take —
// each case's second nest breaks one clause of the qualification rule
// (plan/row.go) and has to stay on the expression tree, where it still
// matches the reference evaluator; the first nest of each program
// qualifies, so the count also says the rule is not simply off.
func TestRowQualificationNegatives(t *testing.T) {
	const head = "routine r(n)\nreal a(n, n), b(n, n), q(n)\n"
	const init = "do i = 1, n\nq(i) = i\nenddo\ndo i = 1, n\ndo j = 1, n\na(i, j) = i + j\nb(i, j) = i - j\nenddo\nenddo\n"
	for _, tc := range []struct {
		name, dist, nest string
		wantErr          string
	}{
		{"recurrence-along-star", "(block, *)", "a(i, j) = a(i, j - 1) + 1", ""},
		{"two-stores-two-offsets", "(block, *)", "a(i, j) = b(i, j)\na(i, j - 1) = 2", ""},
		{"cyclic-last-dimension", "(block, cyclic)", "a(i, j) = b(i, j) * 2", ""},
		{"sum-in-rhs", "(block, block)", "a(i, j) = b(i, j) + sum(q(1:n))", ""},
		{"mod-subscript", "(block, block)", "a(i, j) = q(mod(j, 3) + 1)", ""},
		{"division-subscript", "(block, block)", "a(i, j) = q(j / 2 + 1)", ""},
		// The front end refuses an unknown intrinsic; a known one with
		// the wrong argument count is the malformed call lowering sees.
		{"malformed-call", "(block, block)", "a(i, j) = sqrt(b(i, j), 2)", "sqrt called with 2 argument(s)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := head + "!hpf$ distribute " + tc.dist + " :: a, b\n" + init +
				"do i = 2, n\ndo j = 2, n\n" + tc.nest + "\nenddo\nenddo\nend\n"
			res := placeSrc(t, src, map[string]int{"n": 9}, 4)
			wantRows := 1
			if tc.name == "cyclic-last-dimension" {
				wantRows = 0 // the initialisation is guarded too
			}
			if rows := rowLoops(res, 4); rows != wantRows {
				t.Errorf("%d row loops, want %d", rows, wantRows)
			}
			if got := lower(res, 4); got.nests != 2 {
				t.Errorf("%d pure nests, want both: the case must fail the row rule, not purity", got.nests)
			}
			ref, refErr := refeval.Run(res.Analysis)
			nat, err := native.Run(res, 4)
			if tc.wantErr != "" {
				if refErr == nil || err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("reference returned %v, run returned %v, want both to fail with %q", refErr, err, tc.wantErr)
				}
				return
			}
			if refErr != nil || err != nil {
				t.Fatalf("reference: %v, run: %v", refErr, err)
			}
			if err := ref.Check(nat.Mem, nat.Scalars); err != nil {
				t.Error(err)
			}
			if err := native.VerifyAgainstSimulator(res, machine.SP2(), 4); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestNativeStaleReadInLastBatchOfBox: a box kernel that cannot prove a
// row after it has run others hands that row to the element walk, which
// reports the element, processor and statement position it reported
// before there were kernels. Rows of 100 elements run two to a batch; at
// P=2 processor 0 owns rows 1-6 and reads the row its neighbour owns from
// the last row of its last batch (processor 1 reads nothing it does not
// own).
func TestNativeStaleReadInLastBatchOfBox(t *testing.T) {
	res := placeSrc(t, `
routine r(n)
real a(n, 100), b(n, 100)
!hpf$ distribute (block, *) :: a, b
do i = 1, n
do j = 1, 100
a(i, j) = i + j
b(i, j) = i - j
enddo
enddo
do i = 1, n - 1
do j = 1, 100
b(i, j) = b(i, j) + a(i + 1, j)
enddo
enddo
end
`, map[string]int{"n": 12}, 2)
	res.Groups = nil
	_, err := native.Run(res, 2)
	var stale *runtime.StaleReadError
	if !errors.As(err, &stale) {
		t.Fatalf("run returned %v, want a *runtime.StaleReadError", err)
	}
	if stale.Proc != 0 || stale.Array != "a" || fmt.Sprint(stale.Index) != "[7 1]" {
		t.Errorf("stale read %+v, want processor 0, a[7 1]", *stale)
	}
	if at := "native: processor 0 at 13:1: "; !strings.HasPrefix(err.Error(), at) {
		t.Errorf("error %q is not positioned %q", err, at)
	}
}

// beyondMargin reads a three columns ahead and one behind, the columns
// descending: at P=2 processor 0 owns columns 1-8 and its first read past
// them, a(2, 11), lies two columns beyond the one-column margin the
// exchange of a(i, j - 1) leaves room for once the exchange of a(i, j + 3)
// is dropped. %s is the loop body: a pure nest, or one a scalar store
// keeps on the expression tree.
const beyondMargin = `
routine r(n)
real a(n, n), b(n, n)
real x
!hpf$ distribute (*, block) :: a, b
do i = 1, n
do j = 1, n
a(i, j) = i * 100 + j
b(i, j) = 0
enddo
enddo
do i = 2, n - 1
do j = n - 3, 2, -1
%s
enddo
enddo
end
`

// TestStaleReadOutsideLocalBox: a read that lands outside the reader's
// local box — past the widest exchange into the array, which a placement
// that dropped the wider one leaves — is a stale read naming the global
// index, on both backends, on the hoisted path of a pure nest and on the
// expression tree alike. It never reads the element its offset would wrap
// to in the next row of the plane, which the reader owns.
func TestStaleReadOutsideLocalBox(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"hoisted", "b(i, j) = a(i, j - 1) + a(i, j + 3)"},
		{"closure-tree", "x = j\nb(i, j) = a(i, j - 1) + a(i, j + 3)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := placeSrc(t, fmt.Sprintf(beyondMargin, tc.body), map[string]int{"n": 16}, 2)
			if _, err := native.Run(res, 2); err != nil {
				t.Fatalf("the whole placement: %v", err)
			}
			kept := res.Groups[:0:0]
			for _, g := range res.Groups {
				if g.Kind != core.KindShift || g.Map.Width != 3 {
					kept = append(kept, g)
				}
			}
			if len(kept) != len(res.Groups)-1 || len(kept) == 0 {
				t.Fatalf("%d of %d groups kept, want all but the exchange of width 3", len(kept), len(res.Groups))
			}
			res.Groups = kept
			if w := plan.Lower(res).Plan.Layout.Array("a"); w.Strides[0] != 10 {
				t.Fatalf("a's planes are %d columns wide, want the 8 of a block and a column of margin on each side", w.Strides[0])
			}
			_, nerr := native.Run(res, 2)
			_, serr := spmd.RunParallel(res, machine.SP2(), 2, 1)
			for name, err := range map[string]error{"native": nerr, "simulator": serr} {
				var stale *runtime.StaleReadError
				if !errors.As(err, &stale) {
					t.Fatalf("%s: run returned %v, want a *runtime.StaleReadError", name, err)
				}
				if want := (runtime.StaleReadError{Proc: 0, Array: "a", Index: []int{2, 11}}); !reflect.DeepEqual(*stale, want) {
					t.Errorf("%s: stale read %+v, want %+v", name, *stale, want)
				}
			}
		})
	}
}

// TestNativeStaleReadDetected: validity tracking must survive
// localization — a placement stripped of its communication still fails
// with a stale read, at every P, without deadlocking the peers that
// were not the ones to notice.
func TestNativeStaleReadDetected(t *testing.T) {
	stencil := `
routine st(n, steps)
real a(n, n), b(n, n)
!hpf$ distribute (block, block) :: a, b
do i = 1, n
do j = 1, n
a(i, j) = i * 10 + j
b(i, j) = 0
enddo
enddo
do it = 1, steps
do i = 2, n - 1
do j = 2, n - 1
b(i, j) = 0.25 * (a(i - 1, j) + a(i + 1, j) + a(i, j - 1) + a(i, j + 1))
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
a(i, j) = b(i, j)
enddo
enddo
enddo
end
`
	gravity, err := bench.ByName("gravity", "main")
	if err != nil {
		t.Fatal(err)
	}
	mustBeStale := func(t *testing.T, res *core.Result, p int) {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			_, err := native.Run(res, p)
			done <- err
		}()
		select {
		case err := <-done:
			var stale *runtime.StaleReadError
			if !errors.As(err, &stale) {
				t.Fatalf("run returned %v, want a *runtime.StaleReadError", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("run without communication deadlocked")
		}
	}
	for _, p := range []int{4, 9, 16} {
		t.Run(fmt.Sprintf("stencil-stripped/P%d", p), func(t *testing.T) {
			res := placeSrc(t, stencil, map[string]int{"n": 14, "steps": 1}, p)
			res.Groups = nil
			mustBeStale(t, res, p)
		})
		t.Run(fmt.Sprintf("gravity-stripped/P%d", p), func(t *testing.T) {
			res := place(t, gravity, 12, p, core.VersionCombine)
			res.Groups = nil
			mustBeStale(t, res, p)
		})
		// A placement that does communicate, on the wrong side of a
		// localized nest: every group at the preheader of a compute nest
		// moves to the nest's postexit, so the ghosts arrive after the
		// nest that reads them.
		t.Run(fmt.Sprintf("stencil-misplaced/P%d", p), func(t *testing.T) {
			res := placeSrc(t, stencil, map[string]int{"n": 14, "steps": 2}, p)
			moved := 0
			for _, g := range res.Groups {
				for _, l := range res.Analysis.G.Loops {
					if l.PreHeader == g.Pos.Block && l.Depth == 2 {
						g.Pos = core.Position{Block: l.PostExit, After: -1}
						moved++
					}
				}
			}
			if moved == 0 {
				t.Fatal("placement put no group at a compute nest's preheader")
			}
			mustBeStale(t, res, p)
		})
	}
}

// TestNativeOutOfRangeSubscriptIsError: a subscript outside the
// declared bounds is an error value carrying the position and the
// processor — from the entry check of a localized nest, the
// per-element check of a guarded walk and a SUM section past the bounds
// (every processor fails the collective before sending) alike — not a
// panic on a
// processor goroutine; every goroutine of the failed run has exited
// when Run returns, and the engine runs again afterwards (the second
// Run executes the program afresh and reports the same error, instead
// of hanging on messages the first left queued).
func TestNativeOutOfRangeSubscriptIsError(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"localized-nest", "do i = 1, n\nb(i) = a(i + 5)\nenddo\n"},
		{"guarded-walk", "do i = 1, n\nx = i\nb(i) = a(i + 5)\nenddo\n"},
		{"left-hand-side", "do i = 1, n\nb(i + 5) = a(i)\nenddo\n"},
		{"sum-section", "x = sum(a(1:n + 5))\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := "routine r(n)\nreal a(n), b(n)\nreal x\n!hpf$ distribute (block) :: a, b\n" +
				"do i = 1, n\na(i) = i\nb(i) = 0\nenddo\n" + tc.body + "end\n"
			res := placeSrc(t, src, map[string]int{"n": 12}, 4)
			eng, err := native.NewEngine(res, 4)
			if err != nil {
				t.Fatal(err)
			}
			before := nonRunners()
			for run := 0; run < 2; run++ {
				_, err := eng.Run()
				if err == nil {
					t.Fatal("out-of-range subscript not reported")
				}
				for _, want := range []string{"processor ", "subscript", "outside the declared 1:12"} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("run %d: error %q lacks %q", run, err, want)
					}
				}
			}
			// Run waits for its goroutines' deferred Done, which precedes
			// their actual exit by a few instructions: give the count a
			// moment to settle before calling it a leak.
			deadline := time.Now().Add(5 * time.Second)
			for nonRunners() > before && time.Now().Before(deadline) {
				goruntime.Gosched()
			}
			if after := nonRunners(); after > before {
				t.Errorf("%d goroutines beside the runners before the failed runs, %d after", before, after)
			}
		})
	}
}

// nonRunners counts the goroutines that are not runners. A leak check
// compares it before and after: runners that earlier tests parked, and
// that idle out in between, neither hide a leaked goroutine nor count as
// one.
func nonRunners() int { return goruntime.NumGoroutine() - native.Runners() }

// TestNativeLoweredErrorsPositioned: the errors lowering leaves in the
// program for evaluation — a subscript naming neither an enclosing loop's
// variable nor a parameter, a section where an element is needed, an
// integer division or mod by zero — carry the simulator's positions.
func TestNativeLoweredErrorsPositioned(t *testing.T) {
	for _, tc := range []struct{ rhs, want string }{
		{"b(x)", `6:10: "x" is not an integer here`},
		{"b(2:3)", "6:8: section of b where an element is needed"},
		{"b(n / (i - i))", "6:12: division by zero"},
		{"b(mod(n, i - i))", "6:10: mod by zero"},
	} {
		src := "routine r(n)\nreal a(n), b(n)\nreal x\n!hpf$ distribute (block) :: a, b\ndo i = 1, n\na(i) = " + tc.rhs + "\nenddo\nend\n"
		_, err := native.Run(placeSrc(t, src, map[string]int{"n": 8}, 4), 4)
		if want := regexp.MustCompile(`^native: processor [0-3] at 6:1: ` + regexp.QuoteMeta(tc.want) + `$`); err == nil || !want.MatchString(err.Error()) {
			t.Errorf("%s: run returned %v, want %s", tc.rhs, err, want)
		}
	}
}

// oneFails is a program in which exactly one processor fails while its
// peers are parked in the fabric. Processor 3 (of 4) alone has work in the
// w nest, so the others run ahead; it alone owns a(n) and so alone
// evaluates r(n + 1) in the guarded walk that follows. The peers need it
// for everything after: the exchange of a (written by that walk, so
// placed after it), then of c, then of d in the other direction, then a
// SUM — processor 2 parks in its second send to 3, processor 1 in the
// receive from 2 of the exchange after that, processor 0 in the SUM's
// gather.
const oneFails = `
routine f(n, m)
real a(n), c(n), d(n), e(n), w(n)
real r(n)
real x, s
!hpf$ distribute (block) :: a, c, d, e, w
do i = 1, n
a(i) = i
c(i) = 0
d(i) = 0
e(i) = 0
w(i) = 0
enddo
do i = n, n
do k = 1, m
w(i) = w(i) + k
enddo
enddo
do i = 1, n
x = i
a(i) = r(i + 1)
enddo
do i = 2, n
c(i) = a(i - 1)
enddo
do i = 2, n
d(i) = c(i - 1)
enddo
do i = 1, n - 1
e(i) = d(i + 1)
enddo
s = sum(e(1:n))
end
`

// TestNativeOneProcessorFails: one processor's error stops a run whose
// other processors are parked in channel operations only it could have
// completed — Run returns the positioned error within a bound, every
// goroutine it started is gone when the count has settled (the reaper
// included), and the engine runs again from a drained fabric to the same
// error; at GOMAXPROCS=1 as well, where the reaper must yield to those it
// releases.
func TestNativeOneProcessorFails(t *testing.T) {
	res := placeSrc(t, oneFails, map[string]int{"n": 12, "m": 20000}, 4)
	for _, maxprocs := range []int{goruntime.GOMAXPROCS(0), 1} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", maxprocs), func(t *testing.T) {
			defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(maxprocs))
			eng, err := native.NewEngine(res, 4)
			if err != nil {
				t.Fatal(err)
			}
			before := nonRunners()
			var first string
			for run := 0; run < 20; run++ {
				ran := make(chan error, 1)
				go func() {
					_, err := eng.Run()
					ran <- err
				}()
				select {
				case err = <-ran:
				case <-time.After(30 * time.Second):
					t.Fatalf("run %d: Run has not returned 30 s after one processor failed", run)
				}
				if err == nil {
					t.Fatal("out-of-range subscript not reported")
				}
				if run == 0 {
					first = err.Error()
					for _, want := range []string{"native: processor 3 at ", "r: subscript 13 of dimension 1 outside the declared 1:12"} {
						if !strings.Contains(first, want) {
							t.Errorf("error %q lacks %q", first, want)
						}
					}
				} else if err.Error() != first {
					t.Fatalf("run %d on the same engine reports %q, the first run %q", run, err, first)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for nonRunners() > before && time.Now().Before(deadline) {
				goruntime.Gosched()
			}
			if after := nonRunners(); after > before {
				t.Errorf("%d goroutines beside the runners before the failed runs, %d after", before, after)
			}
		})
	}
}

// TestNativeSectionOverEnclosingLoop: an exchange inside the plane loop
// whose section is row i - 1 moves different strips in every iteration;
// its schedule is rebuilt each time and the run stays bit-identical to the
// simulator (values and validity planes), where one replayed from the
// first iteration would deliver row 1 over and over.
func TestNativeSectionOverEnclosingLoop(t *testing.T) {
	res := placeSrc(t, `
routine w(n)
real a(n, n)
!hpf$ distribute (*, block) :: a
do i = 1, n
do j = 1, n
a(i, j) = i + 2 * j
enddo
enddo
do i = 2, n
do j = 2, n - 1
a(i, j) = a(i - 1, j - 1) + a(i - 1, j + 1)
enddo
enddo
end
`, map[string]int{"n": 12}, 4)
	if err := native.VerifyAgainstSimulator(res, machine.SP2(), 4); err != nil {
		t.Fatal(err)
	}
	out, err := native.Run(res, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Ops["exchange"] < 11 {
		t.Fatalf("%d exchanges executed, want one or more per plane: the exchange was hoisted out of the loop", out.Stats.Ops["exchange"])
	}
}
