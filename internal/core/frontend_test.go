package core_test

import (
	"runtime/debug"
	"testing"

	"gcao/internal/ast"
	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/parser"
	"gcao/internal/sem"
)

// TestFrontEndAllocs pins what the front end below the parser allocates
// on the six Fig. 10(a) routines at P = 25, per pass over all six:
// sem.Analyze, and core.NewSkeleton — scalarization, the CFG, dominators,
// SSA and the parameter-free subscript forms. Each builds its tables from
// slabs sized by a counting pass, and the scalarizer shares what it does
// not rewrite, so both allocate by the routine, not by the node. Measured
// when the pins were set: sem 116 and the skeleton 219, from 165 and 326
// before the distributions' dimensions, the CFG, the dominance frontier
// and the SSA builder took one slab per element type, and 569 and 2,311
// when symbols, nodes, lists and defs were allocated one by one. The
// instance half, (*Skeleton).Analyze, is pinned beside them: 207, from 317
// before the class memo interned its keys into one arena and sized its
// caches by the SSA form's counts, and 519 when the dependence memo kept
// a direction vector per (def, use) pair and diagonal coalescing
// allocated per diagonal. Each budget is 1.25× its measurement, as
// TestParseAllocs'.
func TestFrontEndAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector moves stack allocations to the heap")
			}
		}
	}
	progs := bench.Programs()
	routines := make([]*ast.Routine, len(progs))
	units := make([]*sem.Unit, len(progs))
	for i, pr := range progs {
		r, err := parser.ParseRoutine(pr.Source)
		if err != nil {
			t.Fatal(err)
		}
		routines[i] = r
		if units[i], err = sem.Analyze(r, pr.Params(pr.DefaultN), sem.Options{Procs: 25}); err != nil {
			t.Fatal(err)
		}
	}
	semAllocs := testing.AllocsPerRun(20, func() {
		for i, pr := range progs {
			if _, err := sem.Analyze(routines[i], pr.Params(pr.DefaultN), sem.Options{Procs: 25}); err != nil {
				t.Fatal(err)
			}
		}
	})
	skelAllocs := testing.AllocsPerRun(20, func() {
		for _, u := range units {
			if _, err := core.NewSkeleton(u, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	skels := make([]*core.Skeleton, len(units))
	for i, u := range units {
		var err error
		if skels[i], err = core.NewSkeleton(u, nil); err != nil {
			t.Fatal(err)
		}
	}
	analyzeAllocs := testing.AllocsPerRun(20, func() {
		for i, u := range units {
			if _, err := skels[i].Analyze(u, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("the six routines: sem.Analyze %.0f allocations, core.NewSkeleton %.0f, (*Skeleton).Analyze %.0f", semAllocs, skelAllocs, analyzeAllocs)
	const semBudget, skelBudget, analyzeBudget = 145, 274, 259
	if analyzeAllocs > analyzeBudget {
		t.Errorf("(*core.Skeleton).Analyze of the six routines allocates %.0f times, budget %d", analyzeAllocs, analyzeBudget)
	}
	if semAllocs > semBudget {
		t.Errorf("sem.Analyze of the six routines allocates %.0f times, budget %d", semAllocs, semBudget)
	}
	if skelAllocs > skelBudget {
		t.Errorf("core.NewSkeleton of the six routines allocates %.0f times, budget %d", skelAllocs, skelBudget)
	}
}
