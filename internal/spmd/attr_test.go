package spmd

import (
	"reflect"
	"strings"
	"testing"

	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/obs"
	"gcao/internal/obs/attr"
)

// attrPair runs the same placement sequentially and with the given
// shard count and returns both attribution records.
func attrPair(t *testing.T, res *core.Result, procs, workers int) (seq, par *attr.Run) {
	t.Helper()
	m := machine.SP2()
	recSeq, recPar := obs.New(), obs.New()
	if _, err := RunParallelObs(res, m, procs, 1, recSeq); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	if _, err := RunParallelObs(res, m, procs, workers, recPar); err != nil {
		t.Fatalf("parallel run (j=%d): %v", workers, err)
	}
	seq, par = recSeq.Attribution(), recPar.Attribution()
	if seq == nil || par == nil {
		t.Fatalf("j=%d: missing attribution record (seq %v, par %v)", workers, seq != nil, par != nil)
	}
	return seq, par
}

// TestAttributionMatchesSequential extends the engine's bit-identity
// contract to the attribution layer: per-superstep h-relation records,
// the analyzed report, and the rendered blame table must all be
// identical for every shard count, on every compiler version.
func TestAttributionMatchesSequential(t *testing.T) {
	const procs = 16
	params := map[string]int{"nx": 6, "ny": 13, "nz": 13, "steps": 3}
	a := compile(t, miniGravitySrc, params, procs)
	model := attr.CostModelFor(machine.SP2())
	for _, v := range []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine} {
		res := placed(t, a, v)
		for _, workers := range []int{2, 3, 4, 7, procs} {
			seq, par := attrPair(t, res, procs, workers)
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("%s j=%d: attribution records differ:\nseq %+v\npar %+v", v, workers, seq, par)
				continue
			}
			seqRep, parRep := attr.Analyze(seq, model), attr.Analyze(par, model)
			if !reflect.DeepEqual(seqRep, parRep) {
				t.Errorf("%s j=%d: analyzed reports differ", v, workers)
			}
			if sb, pb := seqRep.FormatBlame(10), parRep.FormatBlame(10); sb != pb {
				t.Errorf("%s j=%d: blame tables differ:\nseq:\n%s\npar:\n%s", v, workers, sb, pb)
			}
		}
	}
}

// TestAttributionRecordShape sanity-checks the record itself: every
// superstep carries a site ID minted by the placer, h-relations are
// bounded by the step's total bytes, and step indices are dense.
func TestAttributionRecordShape(t *testing.T) {
	const procs = 16
	params := map[string]int{"nx": 6, "ny": 13, "nz": 13, "steps": 3}
	a := compile(t, miniGravitySrc, params, procs)
	res := placed(t, a, core.VersionCombine)
	run, _ := attrPair(t, res, procs, 4)
	if run.Version != "comb" || run.Procs != procs {
		t.Fatalf("run header = %q/%d", run.Version, run.Procs)
	}
	if len(run.Steps) == 0 {
		t.Fatal("no attribution supersteps recorded")
	}
	for i, s := range run.Steps {
		if s.Index != i {
			t.Errorf("step %d has index %d", i, s.Index)
		}
		if s.Site == "" || !strings.HasPrefix(s.Site, "comb/g") {
			t.Errorf("step %d: site %q not minted by the placer", i, s.Site)
		}
		if s.HIn > s.Bytes || s.HOut > s.Bytes {
			t.Errorf("step %d: h-relation (%d, %d) exceeds step bytes %d", i, s.HIn, s.HOut, s.Bytes)
		}
		if s.Bytes > 0 && s.H() == 0 {
			t.Errorf("step %d: moved %d bytes but h-relation is zero", i, s.Bytes)
		}
		if len(s.Arrays) == 0 {
			t.Errorf("step %d: no arrays recorded", i)
		}
	}
}

// TestBlameLinksToGreedyDecision is the acceptance criterion tying the
// three layers together: the top-blamed site of a simulated run must
// correspond to a placement the decision log shows the comb version's
// GreedyChoose selected (outcome "placed", same site ID, same group).
func TestBlameLinksToGreedyDecision(t *testing.T) {
	const procs = 16
	params := map[string]int{"nx": 6, "ny": 13, "nz": 13, "steps": 3}
	a := compile(t, miniGravitySrc, params, procs)
	rec := obs.New()
	res, err := a.Place(core.Options{Version: core.VersionCombine, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunParallelObs(res, machine.SP2(), procs, 4, rec); err != nil {
		t.Fatal(err)
	}
	rep := attr.Analyze(rec.Attribution(), attr.CostModelFor(machine.SP2()))
	if len(rep.Sites) == 0 {
		t.Fatal("no blamed sites")
	}
	top := rep.Sites[0]
	if top.CritSec <= 0 {
		t.Fatalf("top site %q contributes no critical-path cost", top.Site)
	}
	var match *obs.Decision
	for i, d := range rec.Decisions() {
		if d.Version == "comb" && d.Outcome == obs.OutcomePlaced && d.Site == top.Site {
			match = &rec.Decisions()[i]
			break
		}
	}
	if match == nil {
		t.Fatalf("top-blamed site %q has no placed decision in the log", top.Site)
	}
	// The site ID encodes the group the decision names, closing the
	// loop: blame → site → decision → group.
	var g *core.Group
	for _, cand := range res.Groups {
		if cand.SiteID() == top.Site {
			g = cand
			break
		}
	}
	if g == nil {
		t.Fatalf("site %q not found among placed groups", top.Site)
	}
	if match.Group != g.ID || match.GroupPos != g.Pos.String() {
		t.Fatalf("decision names group %d@%s, site belongs to group %d@%s",
			match.Group, match.GroupPos, g.ID, g.Pos)
	}
	if len(top.Sources) == 0 {
		t.Errorf("top site %q carries no source blame", top.Site)
	}
}
