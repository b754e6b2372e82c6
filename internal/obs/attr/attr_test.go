package attr

import (
	"strings"
	"testing"

	"gcao/internal/machine"
)

func TestStepH(t *testing.T) {
	if h := (Step{HIn: 3, HOut: 7}).H(); h != 7 {
		t.Fatalf("H = %d, want 7", h)
	}
	if h := (Step{HIn: 9, HOut: 2}).H(); h != 9 {
		t.Fatalf("H = %d, want 9", h)
	}
}

// TestAnalyzeCriticalPath pins the longest-path DP on a hand-built
// run: two independent chains over disjoint arrays; the heavier chain
// must be the critical path and its site the top blame.
func TestAnalyzeCriticalPath(t *testing.T) {
	run := &Run{
		Version: "comb",
		Procs:   4,
		Steps: []Step{
			{Index: 0, Site: "comb/g0@B1.top/NNC", Kind: "NNC", Arrays: []string{"a"}, Messages: 4, Bytes: 400, HIn: 100, HOut: 100},
			{Index: 1, Site: "comb/g1@B1.top/NNC", Kind: "NNC", Arrays: []string{"b"}, Messages: 2, Bytes: 40, HIn: 10, HOut: 10},
			{Index: 2, Site: "comb/g0@B1.top/NNC", Kind: "NNC", Arrays: []string{"a"}, Messages: 4, Bytes: 400, HIn: 100, HOut: 100},
			{Index: 3, Site: "comb/g1@B1.top/NNC", Kind: "NNC", Arrays: []string{"b"}, Messages: 2, Bytes: 40, HIn: 10, HOut: 10},
		},
	}
	model := CostModel{GSecPerByte: 1e-6, LSec: 1e-5}
	rep := Analyze(run, model)

	if rep.TotalSteps != 4 || rep.TotalMessages != 12 || rep.TotalBytes != 880 {
		t.Fatalf("totals = %d/%d/%d", rep.TotalSteps, rep.TotalMessages, rep.TotalBytes)
	}
	// Chain over "a": 2 * (1e-5 + 1e-6*100) = 2.2e-4.
	want := 2 * (model.LSec + model.GSecPerByte*100)
	if rep.CriticalSec != want {
		t.Fatalf("critical sec = %g, want %g", rep.CriticalSec, want)
	}
	if len(rep.CriticalPath) != 2 || rep.CriticalPath[0].Index != 0 || rep.CriticalPath[1].Index != 2 {
		t.Fatalf("critical path = %+v", rep.CriticalPath)
	}
	serial := rep.CriticalSec + 2*(model.LSec+model.GSecPerByte*10)
	if rep.SerialSec != serial {
		t.Fatalf("serial sec = %g, want %g", rep.SerialSec, serial)
	}
	if len(rep.Sites) != 2 || rep.Sites[0].Site != "comb/g0@B1.top/NNC" {
		t.Fatalf("site ranking = %+v", rep.Sites)
	}
	top := rep.Sites[0]
	if top.Steps != 2 || top.CritSteps != 2 || top.CritSec != want || top.HBytes != 200 {
		t.Fatalf("top site = %+v", top)
	}
	if other := rep.Sites[1]; other.CritSec != 0 || other.CritSteps != 0 {
		t.Fatalf("off-path site has critical contribution: %+v", other)
	}
}

// TestAnalyzeDependsThroughSharedArray: a step touching two arrays
// links otherwise-independent chains.
func TestAnalyzeDependsThroughSharedArray(t *testing.T) {
	run := &Run{
		Version: "comb",
		Procs:   2,
		Steps: []Step{
			{Index: 0, Site: "s0", Arrays: []string{"a"}, HIn: 100, HOut: 100},
			{Index: 1, Site: "s1", Arrays: []string{"b"}, HIn: 100, HOut: 100},
			{Index: 2, Site: "s2", Arrays: []string{"a", "b"}, HIn: 100, HOut: 100},
		},
	}
	rep := Analyze(run, CostModel{GSecPerByte: 1e-6, LSec: 0})
	// Step 2 depends on the heavier of steps 0 and 1 (equal here, tie
	// toward the lower index), so the path has length 2, not 3.
	if len(rep.CriticalPath) != 2 || rep.CriticalPath[0].Index != 0 || rep.CriticalPath[1].Index != 2 {
		t.Fatalf("critical path = %+v", rep.CriticalPath)
	}
}

func TestAnalyzeEmptyRun(t *testing.T) {
	rep := Analyze(&Run{Version: "comb", Procs: 4}, CostModelFor(machine.SP2()))
	if rep.CriticalSec != 0 || len(rep.CriticalPath) != 0 || len(rep.Sites) != 0 {
		t.Fatalf("empty run produced %+v", rep)
	}
	if !strings.Contains(rep.FormatBlame(5), "no communication supersteps") {
		t.Fatalf("blame table for empty run:\n%s", rep.FormatBlame(5))
	}
}

func TestTopSitesAndFormatBlame(t *testing.T) {
	run := &Run{
		Version: "comb",
		Procs:   2,
		Steps: []Step{
			{Index: 0, Site: "sA", Kind: "NNC", Arrays: []string{"a"}, Sources: []string{"s1@4:1"}, Messages: 2, Bytes: 64, HIn: 32, HOut: 32},
			{Index: 1, Site: "sB", Kind: "SUM", Arrays: []string{"b"}, Messages: 1, Bytes: 8, HIn: 8, HOut: 8},
		},
	}
	rep := Analyze(run, CostModelFor(machine.SP2()))
	if got := len(rep.topSites(1)); got != 1 {
		t.Fatalf("topSites(1) = %d entries", got)
	}
	if got := len(rep.topSites(0)); got != 2 {
		t.Fatalf("topSites(0) = %d entries", got)
	}
	out := rep.FormatBlame(5)
	for _, want := range []string{"communication blame", "critical path:", "sA", "sB", "s1@4:1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("blame table missing %q:\n%s", want, out)
		}
	}
}
