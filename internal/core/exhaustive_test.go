package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/parser"
	"gcao/internal/sem"
)

// analysisCase is one routine under one binding.
type analysisCase struct {
	name string
	u    *sem.Unit
}

// exhaustiveCases returns the six Fig. 10(a) routines at P = 4 and 25,
// the first seeds random programs, what sem accepts of the syntax corpus
// (every parameter 8) and StencilNests at k = 50.
func exhaustiveCases(t *testing.T, seeds int) []analysisCase {
	t.Helper()
	var cases []analysisCase
	add := func(name, src string, params map[string]int, procs int) {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range prog.Routines {
			bind := params
			if bind == nil {
				bind = map[string]int{}
				for _, p := range r.Params {
					bind[p] = 8
				}
			}
			if u, err := sem.Analyze(r, bind, sem.Options{Procs: procs}); err == nil {
				cases = append(cases, analysisCase{fmt.Sprintf("%s/%s P=%d", name, r.Name, procs), u})
			}
		}
	}
	for _, pr := range bench.Programs() {
		for _, p := range []int{4, 25} {
			add(pr.Bench, pr.Source, pr.Params(pr.DefaultN), p)
		}
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		add(fmt.Sprintf("random %d", seed), bench.RandomProgram(seed), map[string]int{"n": 12, "steps": 2}, 4)
	}
	for _, c := range bench.SyntaxSources() {
		add(c.Name, c.Src, nil, 4)
	}
	add("nests k=50", bench.StencilNests(50, 1), map[string]int{"n": 64, "steps": 2}, 16)
	return cases
}

// TestLatestEarliestMatchExhaustive: the analysis skips the dependence
// queries whose answer cannot change CommLevel and cuts Fig. 8(b)'s
// Rcount walks short once their outcome is settled; every entry's
// CommLevel, Latest, Earliest (and its def) and candidates must still be
// what the exhaustive computation, answering every query from scratch,
// derives.
func TestLatestEarliestMatchExhaustive(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	cases := exhaustiveCases(t, seeds)
	entries := 0
	for _, c := range cases {
		a, err := core.NewAnalysis(c.u)
		if err != nil {
			continue // a routine the analysis rejects, as it did before
		}
		want, err := a.ExhaustiveRanges()
		if err != nil {
			t.Fatalf("%s: exhaustive: %v", c.name, err)
		}
		for i, e := range a.CommEntries() {
			if got := core.RangeOf(e); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s: %s: range %+v, exhaustive %+v", c.name, e, got, want[i])
			}
			entries++
		}
	}
	if len(cases) < 12+seeds || entries == 0 {
		t.Fatalf("%d routines, %d entries: the test exercises too little", len(cases), entries)
	}
	t.Logf("%d routines, %d entries", len(cases), entries)
}

// TestAnalysisScales: on StencilNests' routine the number of Directions
// evaluations Analyze makes follows the distinct shapes of its reference
// pairs, not the number of pairs, so doubling the routine must not double
// it (a per-pair memo grows about 4× per doubling here). Time is measured
// by BenchmarkAnalysisScale, not asserted.
func TestAnalysisScales(t *testing.T) {
	prev := 0
	for _, k := range []int{100, 200, 400, 800} {
		r, err := parser.ParseRoutine(bench.StencilNests(k, 1))
		if err != nil {
			t.Fatal(err)
		}
		u, err := sem.Analyze(r, map[string]int{"n": 64, "steps": 2}, sem.Options{Procs: 16})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := core.NewSkeleton(u, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, evals, err := sk.AnalyzeCounting(u)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("k=%d: %d entries, %d Directions evaluations", k, len(a.Entries), evals)
		if evals == 0 {
			t.Fatalf("k=%d: no Directions evaluation counted", k)
		}
		if prev > 0 && float64(evals) > 2.3*float64(prev) {
			t.Errorf("k=%d: %d Directions evaluations, %.2f× the %d at k=%d (bound 2.3×)", k, evals, float64(evals)/float64(prev), prev, k/2)
		}
		prev = evals
	}
}
