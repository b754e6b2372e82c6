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
	// Comm is each plan's group index.
	Comm  [][][][]*core.Group
	Bound bound.Bound
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
		u.Results, u.Costs = append(u.Results, res), append(u.Costs, cost)
		u.Comm = append(u.Comm, plan.New(res, mem).Comm)
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

// TestPlaceNilRecorderAllocs pins what one placement without a
// recorder allocates, per version, on hydflo/flux at P = 25. A
// placement carves its Result and scratch from a few slabs sized from
// the entry and position counts, and derives site labels and source
// lists only when an observer asks, so the count is a small constant
// however many groups, pairs and positions it weighs. Measured: orig 7,
// nored 7, comb 14 since Redundant and the member lists share one slab;
// orig 8, nored 8, comb 15 since the redundancy and position tables are
// kept by entry ID; orig 12, nored 18, comb 25 before that, and 402, 347 and 965
// when groups, bucket maps, per-position lists and labels were allocated
// one by one (comb was 1,063 before the labels stopped going through fmt,
// and built 166 counter names per call before the nil tally). Each budget
// is 1.25× its measurement, rounded up; TestNilTallyCostsNothing holds
// the tally exactly.
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
	budget := map[core.Version]float64{core.VersionOrig: 9, core.VersionRedund: 9, core.VersionCombine: 18}
	for _, v := range []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := a.Place(core.Options{Version: v}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget[v] {
			t.Errorf("Place(%v) without a recorder allocates %.0f times, budget %.0f", v, allocs, budget[v])
		}
		t.Logf("Place(%v), no recorder: %.0f allocs", v, allocs)
	}
}
