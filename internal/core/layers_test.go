package core_test

import (
	"runtime/debug"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/cfg"
	"gcao/internal/core"
	"gcao/internal/core/bound"
	"gcao/internal/dep"
	"gcao/internal/dom"
	"gcao/internal/parser"
	"gcao/internal/scalarize"
	"gcao/internal/sem"
	"gcao/internal/ssa"
)

// layerRoutine is one routine with every layer of its analysis built, so
// that each layer can be measured on its own inputs.
type layerRoutine struct {
	u    *sem.Unit
	body *scalarize.Result
	g    *cfg.Graph
	t    *dom.Tree
	info *ssa.Info
	a    *core.Analysis
}

func newLayerRoutine(t *testing.T, src string, params map[string]int, procs int) layerRoutine {
	t.Helper()
	r, err := parser.ParseRoutine(src)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sem.Analyze(r, params, sem.Options{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalysis(u)
	if err != nil {
		t.Fatal(err)
	}
	return layerRoutine{u: u, body: a.Scal, g: a.G, t: a.Dom, info: a.SSA, a: a}
}

func (r layerRoutine) isArray(name string) bool {
	_, ok := r.u.Arrays[name]
	return ok
}

// layerAllocs measures, per pass over rs, what each analysis layer
// allocates: the CFG, the dominator tree, the SSA form with its
// validation, the dependence classification of every (regular def, use)
// pair of one array, and the lower bound.
func layerAllocs(t *testing.T, rs []layerRoutine) map[string]float64 {
	t.Helper()
	runs := func(f func(r layerRoutine)) float64 {
		return testing.AllocsPerRun(20, func() {
			for _, r := range rs {
				f(r)
			}
		})
	}
	return map[string]float64{
		"cfg.Build": runs(func(r layerRoutine) { cfg.Build(r.body.Body) }),
		"dom.New":   runs(func(r layerRoutine) { dom.New(r.g) }),
		"ssa.Build": runs(func(r layerRoutine) {
			if err := ssa.Build(r.g, r.t, r.isArray).Validate(); err != nil {
				t.Fatal(err)
			}
		}),
		"dep": runs(func(r layerRoutine) {
			d := dep.New(r.u)
			d.Forms = r.a.Forms
			for _, def := range r.info.Defs {
				for _, use := range r.info.Uses {
					if use.Var == def.Var {
						d.DepLevel(def, use)
					}
				}
			}
		}),
		"bound.Compute": runs(func(r layerRoutine) { bound.Compute(r.a) }),
	}
}

// TestAnalysisLayerAllocs pins what the analysis layers between the
// front end and placement allocate on the six Fig. 10(a) routines at
// P = 25, per pass over all six. Each takes its tables from one slab per
// element type, sized by counts it already holds, so it allocates by the
// routine, not by the block, def, class or group. Measured when the pins
// were set: cfg.Build 48, dom.New 12, ssa.Build with the dominance
// frontier and Validate 111, the dependence classification of every pair
// 89, bound.Compute 12; from 72, 12, 185, 154 and 82 when the graph, the
// SSA builder, the class memo and the bound's groups made a table each,
// and the memo a string per class key. Each budget is 1.25× its
// measurement, as TestFrontEndAllocs'; ssa.Build now measures 117, six
// for the frontier's own ints, and keeps its budget. The classification
// measures 82 since the memo sizes its bounds from the loop count and
// makes its maps of derived forms only for a routine with a reference
// that reads a parameter, and its budget is 102. Because every table
// is sized by a count, the graph, the dominator tree, the SSA form and
// the bound also allocate as often on a routine four times as long.
func TestAnalysisLayerAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector moves stack allocations to the heap")
			}
		}
	}
	var six []layerRoutine
	for _, pr := range bench.Programs() {
		six = append(six, newLayerRoutine(t, pr.Source, pr.Params(pr.DefaultN), 25))
	}
	got := layerAllocs(t, six)
	budget := map[string]float64{"cfg.Build": 60, "dom.New": 15, "ssa.Build": 139, "dep": 102, "bound.Compute": 15}
	for layer, n := range got {
		t.Logf("the six routines: %s %.0f allocations, budget %.0f", layer, n, budget[layer])
		if n > budget[layer] {
			t.Errorf("%s on the six routines allocates %.0f times, budget %.0f", layer, n, budget[layer])
		}
	}

	params := map[string]int{"n": 64, "steps": 2}
	short := layerAllocs(t, []layerRoutine{newLayerRoutine(t, bench.StencilNests(25, 1), params, 16)})
	long := layerAllocs(t, []layerRoutine{newLayerRoutine(t, bench.StencilNests(100, 1), params, 16)})
	for _, layer := range []string{"cfg.Build", "dom.New", "ssa.Build", "bound.Compute"} {
		if short[layer] != long[layer] {
			t.Errorf("%s allocates %.0f times on 25 stencil nests and %.0f on 100: a table is not sized by a count", layer, short[layer], long[layer])
		}
	}
}
