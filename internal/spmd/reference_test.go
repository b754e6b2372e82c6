package spmd_test

import (
	"fmt"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/parser"
	"gcao/internal/refeval"
	"gcao/internal/sem"
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
		res, err := a.Place(core.Options{Version: v})
		if err != nil {
			t.Fatalf("%s: place: %v", v, err)
		}
		run, err := spmd.RunParallel(res, machine.SP2(), procs, 0)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if err := ref.Check(run.Mem, run.Scalars); err != nil {
			t.Errorf("%s: %v", v, err)
		}
	}
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
			r, err := parser.ParseRoutine(up.Src)
			if err != nil {
				t.Fatal(err)
			}
			u, err := sem.Analyze(r, up.Params, sem.Options{Procs: up.Procs})
			if err != nil {
				t.Fatal(err)
			}
			a, err := core.NewAnalysis(u)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, a, up.Procs)
		})
	}
}
