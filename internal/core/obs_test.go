package core_test

import (
	"fmt"
	"strings"
	"testing"

	"gcao/internal/core"
	"gcao/internal/obs"
	"gcao/internal/parser"
	"gcao/internal/sem"
)

// renderResult serializes a placement to a canonical string so two
// results can be compared byte for byte.
func renderResult(res *core.Result) string {
	var b strings.Builder
	for _, g := range res.Groups {
		fmt.Fprintf(&b, "group%d %v @%v members=%d attached=%d\n",
			g.ID, g.Kind, g.Pos, len(g.Entries), len(g.Attached))
		for _, e := range g.Entries {
			fmt.Fprintf(&b, "  %v\n", e)
		}
	}
	for id, by := range res.Redundant {
		if by != nil {
			fmt.Fprintf(&b, "redundant %v subsumed by %v\n", res.Analysis.Entries[id], by)
		}
	}
	return b.String()
}

// TestNilRecorderPlacementIdentical: attaching a recorder must not
// change any placement decision — the instrumented and bare paths have
// to produce byte-identical results under every version.
func TestNilRecorderPlacementIdentical(t *testing.T) {
	for _, v := range []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine} {
		bare := analyze(t, fig4Src, map[string]int{"n": 16}, 4)
		inst := analyze(t, fig4Src, map[string]int{"n": 16}, 4)
		got := renderResult(placeRec(t, inst, v, obs.New()))
		want := renderResult(place(t, bare, v))
		if got != want {
			t.Errorf("%v: instrumented placement differs from bare placement:\n--- bare ---\n%s--- instrumented ---\n%s", v, want, got)
		}
	}
}

// TestDecisionLogCoversEveryEntry: every analysis entry — placed,
// subsumed, or coalesced — must produce exactly one decision record per
// placement, and outcomes must agree with the result's structure.
func TestDecisionLogCoversEveryEntry(t *testing.T) {
	a := analyze(t, fig4Src, map[string]int{"n": 16}, 4)
	rec := obs.New()
	res := placeRec(t, a, core.VersionCombine, rec)

	var decs []obs.Decision
	for _, d := range rec.Decisions() {
		if d.Version == core.VersionCombine.String() {
			decs = append(decs, d)
		}
	}
	if len(decs) != len(a.Entries) {
		t.Fatalf("decision records = %d, want one per entry = %d", len(decs), len(a.Entries))
	}
	seen := map[int]bool{}
	counts := map[string]int{}
	for _, d := range decs {
		if seen[d.Entry] {
			t.Errorf("entry e%d recorded twice", d.Entry)
		}
		seen[d.Entry] = true
		counts[d.Outcome]++
		if d.Outcome == obs.OutcomeSubsumed && d.SubsumedBy < 0 {
			t.Errorf("e%d subsumed without a subsumer", d.Entry)
		}
	}
	if counts[obs.OutcomeSubsumed] != res.Eliminated() {
		t.Errorf("subsumed records = %d, want %d", counts[obs.OutcomeSubsumed], res.Eliminated())
	}
	placedEntries := 0
	for _, g := range res.Groups {
		placedEntries += len(g.Entries)
	}
	if counts[obs.OutcomePlaced] != placedEntries {
		t.Errorf("placed records = %d, want %d", counts[obs.OutcomePlaced], placedEntries)
	}
	if counts[obs.OutcomeCoalesced] != len(a.Entries)-len(a.CommEntries()) {
		t.Errorf("coalesced records = %d, want %d", counts[obs.OutcomeCoalesced], len(a.Entries)-len(a.CommEntries()))
	}
}

// TestPlacementCountersConsistent: the recorder's counters must agree
// with the result they describe — in particular the comb identity
// messages = entries − eliminated − merges, the quantity behind the
// Fig. 10(a) deltas.
func TestPlacementCountersConsistent(t *testing.T) {
	a := analyze(t, fig4Src, map[string]int{"n": 16}, 4)
	rec := obs.New()
	orig := placeRec(t, a, core.VersionOrig, rec)
	comb := placeRec(t, a, core.VersionCombine, rec)
	c := rec.Counters()

	if got := c["place.orig.groups"]; got != int64(orig.TotalMessages()) {
		t.Errorf("place.orig.groups = %d, want %d", got, orig.TotalMessages())
	}
	entries := c["place.comb.entries"]
	elim := c["place.comb.redundancy.eliminated"]
	merges := c["place.comb.combine.merges"]
	if got := entries - elim - merges; got != int64(comb.TotalMessages()) {
		t.Errorf("entries(%d) - eliminated(%d) - merges(%d) = %d, want TotalMessages = %d",
			entries, elim, merges, got, comb.TotalMessages())
	}
	if elim != int64(comb.Eliminated()) {
		t.Errorf("redundancy.eliminated = %d, want %d", elim, comb.Eliminated())
	}
	if c["place.comb.greedy.iterations"] <= 0 {
		t.Error("greedy.iterations not counted")
	}
}

// TestAnalysisCountersRecorded: the recorder handed to NewSkeleton and
// Analyze sees the pipeline spans and the entry discovery counters.
func TestAnalysisCountersRecorded(t *testing.T) {
	rec := obs.New()
	r, err := parser.ParseRoutine(fig4Src)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sem.Analyze(r, map[string]int{"n": 16}, sem.Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := core.NewSkeleton(u, rec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sk.Analyze(u, rec)
	if err != nil {
		t.Fatal(err)
	}
	c := rec.Counters()
	if c["analysis.entries"] != int64(len(a.Entries)) {
		t.Errorf("analysis.entries = %d, want %d", c["analysis.entries"], len(a.Entries))
	}
	if c["analysis.comm_entries"] != int64(len(a.CommEntries())) {
		t.Errorf("analysis.comm_entries = %d, want %d", c["analysis.comm_entries"], len(a.CommEntries()))
	}
	names := map[string]bool{}
	for _, s := range rec.Spans() {
		names[s.Name] = true
	}
	for _, want := range []string{"scalarize", "cfg", "dom", "ssa", "dep", "entries", "earliest-latest"} {
		if !names[want] {
			t.Errorf("pipeline span %q not recorded", want)
		}
	}
}
