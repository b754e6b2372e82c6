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
		got := fastRanges(a)
		for _, i := range rangeMismatches(got, want) {
			t.Errorf("%s: %s: range %+v, exhaustive %+v", c.name, a.CommEntries()[i], got[i], want[i])
		}
		entries += len(got)
	}
	if len(cases) < 12+seeds || entries == 0 {
		t.Fatalf("%d routines, %d entries: the test exercises too little", len(cases), entries)
	}
	t.Logf("%d routines, %d entries", len(cases), entries)
}

// fastRanges is the range of every entry CommEntries lists, as the
// analysis computed it.
func fastRanges(a *core.Analysis) []core.Range {
	var out []core.Range
	for _, e := range a.CommEntries() {
		out = append(out, core.RangeOf(e))
	}
	return out
}

// rangeMismatches returns the indices of the entries whose range in got
// differs from the exhaustive computation's in want.
func rangeMismatches(got, want []core.Range) []int {
	var bad []int
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			bad = append(bad, i)
		}
	}
	return bad
}

// TestExhaustiveComparisonReportsMovedRange: the comparison
// TestLatestEarliestMatchExhaustive relies on can fail. Moving one entry's
// Latest, and then one entry's Earliest, by one candidate position in the
// fast analysis' answer on shallow at P = 4 must make it report that entry
// and no other.
func TestExhaustiveComparisonReportsMovedRange(t *testing.T) {
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		t.Fatal(err)
	}
	a, err := pr.Compile(pr.DefaultN, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.ExhaustiveRanges()
	if err != nil {
		t.Fatal(err)
	}
	if bad := rangeMismatches(fastRanges(a), want); len(bad) != 0 {
		t.Fatalf("entries %v differ before any position moved", bad)
	}
	// Candidates run earliest-first from Earliest to Latest, so the
	// position one step inside the range is the second or the next to last.
	for _, field := range []struct {
		name string
		move func(r *core.Range)
	}{
		{"Latest", func(r *core.Range) { r.Latest = r.Candidates[len(r.Candidates)-2] }},
		{"Earliest", func(r *core.Range) { r.Earliest = r.Candidates[1] }},
	} {
		got := fastRanges(a)
		moved := -1
		for i := range got {
			if len(got[i].Candidates) >= 2 {
				field.move(&got[i])
				moved = i
				break
			}
		}
		if moved < 0 {
			t.Fatal("no entry has two candidate positions")
		}
		if bad := rangeMismatches(got, want); !reflect.DeepEqual(bad, []int{moved}) {
			t.Errorf("%s of entry %d moved one candidate position: the comparison reports entries %v, want [%d]", field.name, moved, bad, moved)
		}
	}
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
