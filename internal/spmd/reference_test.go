package spmd_test

import (
	"fmt"
	"strings"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/refeval"
	"gcao/internal/spmd"
)

// checkAgainstReference simulates every version of the analysis and
// requires each final state to be bit-identical to the reference
// evaluator's.
func checkAgainstReference(t *testing.T, a *core.Analysis, procs int) {
	t.Helper()
	ref, err := refeval.Run(a)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for _, v := range versions {
		if err := referenceDiff(t, ref, a, v, procs); err != nil {
			t.Errorf("%s: %v", v, err)
		}
	}
}

// referenceDiff simulates one version of the analysis and returns how its
// final state differs from the reference state, nil if in nothing.
func referenceDiff(t *testing.T, ref *refeval.State, a *core.Analysis, v core.Version, procs int) error {
	t.Helper()
	res, err := a.Place(core.Options{Version: v})
	if err != nil {
		t.Fatalf("%s: place: %v", v, err)
	}
	run, err := spmd.RunParallel(res, machine.SP2(), procs, 0)
	if err != nil {
		t.Fatalf("%s: %v", v, err)
	}
	return ref.Check(run.Mem, run.Scalars)
}

// TestLoweredMatchesReference holds the one evaluator both backends
// share against an independent one: the simulator's final arrays and
// scalars must equal, bit for bit, what the naive sequential evaluator
// of package refeval computes from the AST — for the six Fig. 10(a)
// routines under every version at P = 1, 4 and 16, and for the unit
// programs of this package (branches, zero-trip, strided and descending
// loops, replicated arrays, intrinsics, reductions). The localization
// edge cases and the random corpus get the same check where they live
// (internal/native, internal/bench).
func TestLoweredMatchesReference(t *testing.T) {
	for _, pr := range bench.Programs() {
		for _, procs := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("%s/%s/P%d", pr.Bench, pr.Routine, procs), func(t *testing.T) {
				a, err := pr.Compile(benchSize(pr), procs)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstReference(t, a, procs)
			})
		}
	}
	for _, up := range spmd.UnitPrograms {
		t.Run(up.Name, func(t *testing.T) {
			checkAgainstReference(t, analyzeSrc(t, up.Src, up.Params, up.Procs), up.Procs)
		})
	}
}

// TestReferenceObjectsToSeededFaults: the comparison
// TestLoweredMatchesReference relies on can fail. Each case runs a program
// whose final state is what a lowering with one known fault would leave —
// subtraction operands swapped, a loop variable left at its last
// iteration's value instead of its exit value — and the reference state
// of the correct program must object to it under every version, naming
// the array or scalar the fault wrote.
func TestReferenceObjectsToSeededFaults(t *testing.T) {
	const src = `
routine seeded(n)
real a(n), b(n), c(n)
real x
integer i
!hpf$ distribute (block) :: a, b, c
do i = 1, n
a(i) = i
b(i) = 2 * i + 1
enddo
do i = 2, n
c(i) = a(i) - b(i - 1)
enddo
x = i
end
`
	for _, tc := range []struct{ name, from, to, names string }{
		{"swapped subtraction operands", "a(i) - b(i - 1)", "b(i - 1) - a(i)", `array "c"`},
		{"last iteration's value for the exit value", "x = i", "x = n", `scalar "x"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := map[string]int{"n": 10}
			ref, err := refeval.Run(analyzeSrc(t, src, params, 4))
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			seeded := strings.Replace(src, tc.from, tc.to, 1)
			if seeded == src {
				t.Fatalf("the source holds no %q to seed", tc.from)
			}
			a := analyzeSrc(t, seeded, params, 4)
			for _, v := range versions {
				if err := referenceDiff(t, ref, a, v, 4); err == nil || !strings.Contains(err.Error(), tc.names) {
					t.Errorf("%s: the reference finds %v, want a difference in %s", v, err, tc.names)
				}
			}
		})
	}
}
