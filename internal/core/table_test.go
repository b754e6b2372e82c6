package core_test

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/core/bound"
	"gcao/internal/dep"
	"gcao/internal/machine"
	"gcao/internal/plan"
	"gcao/internal/runtime"
	"gcao/internal/spmd"
)

// tableAnalyses returns the analyses the table tests run over: the six
// Fig. 10(a) routines at P=25 and 40 random programs at P=4.
func tableAnalyses(t *testing.T) map[string]*core.Analysis {
	t.Helper()
	out := map[string]*core.Analysis{}
	for _, pr := range bench.Programs() {
		a, err := pr.Compile(pr.DefaultN, 25)
		if err != nil {
			t.Fatal(err)
		}
		out[pr.Bench+"/"+pr.Routine] = a
	}
	for seed := int64(1); seed <= 40; seed++ {
		out[fmt.Sprintf("seed%d", seed)] = analyze(t, bench.RandomProgram(seed), map[string]int{"n": 8, "steps": 2}, 4)
	}
	return out
}

// TestSectionTableMatchesExpansion: for every entry and every level,
// in and out of range, the table built once at analysis time holds
// exactly what a fresh expansion of the entry's symbolic section gives,
// and the byte table is BytesForSection of the section table.
func TestSectionTableMatchesExpansion(t *testing.T) {
	checked := 0
	for name, a := range tableAnalyses(t) {
		for _, e := range a.Entries {
			depth := len(e.Use().Stmt.Loops)
			levels := []int{-1, depth + 2}
			for l := 0; l <= depth; l++ {
				levels = append(levels, l)
			}
			for _, l := range levels {
				got, want := e.SectionAt(a, l), e.ExpandFromDims(a, l)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %v level %d: table %v, fresh expansion %v", name, e, l, got, want)
				}
				gb, gok := e.BytesAt(a, l)
				wb, wok := e.BytesForSection(a, got)
				if gb != wb || gok != wok {
					t.Errorf("%s %v level %d: BytesAt = %d,%v, BytesForSection(SectionAt) = %d,%v", name, e, l, gb, gok, wb, wok)
				}
				checked++
			}
		}
	}
	if checked < 1000 {
		t.Errorf("only %d (entry, level) pairs checked", checked)
	}
}

// sharedUse is everything the serving layer does with one cached
// analysis: the three placements, their estimates and plans, and the
// lower bound.
type sharedUse struct {
	Results []*core.Result
	Costs   []spmd.Cost
	// Comm and PlanBounds are each plan's group index and its payload
	// bounds in Result.Groups order (Plan.Bound itself is keyed by
	// group pointer, which no two placements share).
	Comm       [][][][]*core.Group
	PlanBounds [][]int
	Bound      bound.Bound
}

func useAnalysis(a *core.Analysis, mem *runtime.Memory) (sharedUse, error) {
	var u sharedUse
	for _, v := range []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine} {
		res, err := a.Place(core.Options{Version: v})
		if err != nil {
			return u, err
		}
		cost, err := spmd.Estimate(res, machine.SP2())
		if err != nil {
			return u, err
		}
		pl := plan.New(res, mem)
		var bounds []int
		for _, g := range res.Groups {
			bounds = append(bounds, pl.Bound[g])
		}
		u.Results, u.Costs = append(u.Results, res), append(u.Costs, cost)
		u.Comm, u.PlanBounds = append(u.Comm, pl.Comm), append(u.PlanBounds, bounds)
	}
	u.Bound = bound.Compute(a)
	return u, nil
}

// TestSharedAnalysisConcurrentPlace: an Analysis is immutable once
// built, so eight goroutines placing, estimating, bounding and planning
// on one (as gcaod does with a cached compilation) each get exactly the
// sequential answer. Run under -race this is what holds "no lock, no
// lazily written state".
func TestSharedAnalysisConcurrentPlace(t *testing.T) {
	pr, err := bench.ByName("hydflo", "flux")
	if err != nil {
		t.Fatal(err)
	}
	a, err := pr.Compile(pr.DefaultN, 16)
	if err != nil {
		t.Fatal(err)
	}
	// What construction remembered of its dependence queries is dropped:
	// a query on the shared analysis would otherwise write to it. What
	// stays is the skeleton's table, which nothing writes.
	if !reflect.DeepEqual(a.Dep, &dep.Analysis{Unit: a.Unit, Forms: a.Forms}) {
		t.Error("the analysis kept the dependence tables of its construction")
	}
	mem := runtime.NewMemory(a.Unit, 16)
	want, err := useAnalysis(a, mem)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := useAnalysis(a, mem)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("goroutine %d: concurrent use of the shared analysis differs from the sequential one", g)
			}
		}()
	}
	wg.Wait()
}

// TestPlaceNilRecorderAllocs pins "nil recorder = zero cost" on the
// placement that counts the most. On hydflo/flux under comb, Place used
// to build 166 counter names (one per greedy round, rejection, merge,
// redundancy step and dropped position) before Recorder.Add saw the nil
// receiver; it now tallies locally and names the counters once, only
// when a recorder listens. 965 allocations measured (1,063 before site
// labels and source lists stopped going through fmt; still 965 once the
// front end allocated by the routine, which placement does not run); the budget leaves
// a quarter for toolchain drift and still trips on a return of per-step
// names. TestNilTallyCostsNothing holds the mechanism exactly.
func TestPlaceNilRecorderAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector moves stack allocations to the heap")
			}
		}
	}
	pr, err := bench.ByName("hydflo", "flux")
	if err != nil {
		t.Fatal(err)
	}
	a, err := pr.Compile(pr.DefaultN, 25)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := a.Place(core.Options{Version: core.VersionCombine}); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 1200
	if allocs > budget {
		t.Errorf("Place(comb) without a recorder allocates %.0f times, budget %d", allocs, budget)
	}
	t.Logf("Place(comb), no recorder: %.0f allocs", allocs)
}
