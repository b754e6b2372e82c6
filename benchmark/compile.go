package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gcao/internal/ast"
	"gcao/internal/bench"
	"gcao/internal/cfg"
	"gcao/internal/core"
	"gcao/internal/core/bound"
	"gcao/internal/dep"
	"gcao/internal/dom"
	"gcao/internal/machine"
	"gcao/internal/parser"
	"gcao/internal/scalarize"
	"gcao/internal/sem"
	"gcao/internal/spmd"
	"gcao/internal/ssa"
)

// suiteProcs is the processor count of the Fig. 10(a) configuration.
const suiteProcs = 25

var versions = []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine}

// versionKeys names the versions as fig10a.json and the metric names
// do; placeSpans are the placement span names.
var (
	versionKeys = []string{"orig", "nored", "comb"}
	placeSpans  = []string{"core.place_orig", "core.place_nored", "core.place_comb"}
)

// fig10aRow is one row of expected/fig10a.json: the static call-site
// counts the paper's Fig. 10(a) reports for one routine and kind.
type fig10aRow struct {
	Bench   string `json:"bench"`
	Routine string `json:"routine"`
	Kind    string `json:"kind"` // "NNC" or "SUM"
	Orig    int    `json:"orig"`
	NoRed   int    `json:"nored"`
	Comb    int    `json:"comb"`
	Comment string `json:"comment,omitempty"`
}

// fig10a is the hand-written expected file, keyed "bench/routine".
type fig10a map[string][]fig10aRow

func loadFig10a(root string) (fig10a, error) {
	data, err := os.ReadFile(filepath.Join(root, "benchmark", "expected", "fig10a.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		Rows []fig10aRow `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("expected/fig10a.json: %w", err)
	}
	out := fig10a{}
	for _, r := range doc.Rows {
		key := r.Bench + "/" + r.Routine
		out[key] = append(out[key], r)
	}
	return out, nil
}

// combTotal is the routine's expected static call-site count under
// comb, all kinds together — the `messages` a daemon response carries.
func (f fig10a) combTotal(key string) int {
	n := 0
	for _, r := range f[key] {
		n += r.Comb
	}
	return n
}

// compiled is what one cold compile of one program produced, kept for
// the output check.
type compiled struct {
	key    string
	counts [3]map[string]int // per version: kind → static call sites
	bytes  [3]float64        // per version: Estimate(SP2).Bytes
	msgs   [3]int
	bound  float64
	ms     float64
	traced bool
}

// compileSuite is the compile-suite workload: one op is one cold pass
// over the six Fig. 10(a) routines in a seeded shuffled order, no
// cache — front end, analysis and placement do all the work and no
// execution layer runs.
type compileSuite struct {
	progs    []*bench.Program
	expected fig10a
	rng      *rand.Rand
	sp2      machine.Machine

	// Bookkeeping of the last op and of the untraced ops, for comm()
	// and layers().
	lastMsgs  int
	lastBytes float64
	lastGaps  []float64            // per program: comb estimate ÷ lower bound
	perProgMS map[string][]float64 // untraced passes only
	sizes     map[string]float64   // IR sizes and counts of one traced pass
}

func newCompileSuite(cfg *config) (workload, error) {
	expected, err := loadFig10a(cfg.root)
	if err != nil {
		return nil, err
	}
	w := &compileSuite{
		progs:     bench.Programs(),
		expected:  expected,
		rng:       rand.New(rand.NewSource(cfg.seed)),
		sp2:       machine.SP2(),
		perProgMS: map[string][]float64{},
	}
	// Two unmeasured passes fault in code and grow the heap to its
	// working size, so the first measured op is not a start-up sample.
	for i := 0; i < 2; i++ {
		out, err := w.pass([]int{0, 1, 2, 3, 4, 5}, nil)
		if err != nil {
			return nil, err
		}
		if err := w.check(0, out); err != nil {
			return nil, err
		}
	}
	w.perProgMS = map[string][]float64{}
	return w, nil
}

func (w *compileSuite) shape() (int, int) { return 1, 1 }

func (w *compileSuite) usage() (float64, uint64, error) { return selfUsage() }

func (w *compileSuite) close() error { return nil }

// order returns op i's program order. The orders are drawn in op
// sequence from the seeded generator, so a seed fixes them all.
func (w *compileSuite) order() []int { return w.rng.Perm(len(w.progs)) }

func (w *compileSuite) op(_ int, tr *recorder) (any, error) {
	return w.pass(w.order(), tr)
}

func (w *compileSuite) pass(order []int, tr *recorder) ([]*compiled, error) {
	out := make([]*compiled, 0, len(order))
	var sizes map[string]float64
	if tr != nil {
		sizes = map[string]float64{}
		w.sizes = sizes
	}
	for _, pi := range order {
		pr := w.progs[pi]
		t0 := time.Now()
		c, err := w.compileOne(pr, tr, sizes)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", pr.Bench, pr.Routine, err)
		}
		c.ms = float64(time.Since(t0)) / float64(time.Millisecond)
		c.traced = tr != nil
		out = append(out, c)
	}
	return out, nil
}

// compileOne is the compiler user's path for one routine, as
// bench.Program.Compile and commstat drive it: parse, analyse, place
// the three versions, estimate each on the SP2 model, compute the
// lower bound. In a traced pass every call is a span, and the five
// child layers NewAnalysis runs internally (scalarize, cfg, dom, ssa,
// dep) are replayed on the same unit to time them from outside.
func (w *compileSuite) compileOne(pr *bench.Program, tr *recorder, sizes map[string]float64) (*compiled, error) {
	c := &compiled{key: pr.Bench + "/" + pr.Routine}
	tr.begin("parser.parse")
	r, err := parser.ParseRoutine(pr.Source)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("sem.analyze")
	u, err := sem.Analyze(r, pr.Params(pr.DefaultN), sem.Options{Procs: suiteProcs})
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("core.analysis")
	a, err := core.NewAnalysis(u)
	tr.end()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if err := replayAnalysisLayers(u, tr, sizes); err != nil {
			return nil, err
		}
		sizes["core.entries"] += float64(len(a.Entries))
		sizes["core.comm_entries"] += float64(len(a.CommEntries()))
	}
	var results [3]*core.Result
	for i, v := range versions {
		tr.begin(placeSpans[i])
		res, err := a.Place(core.Options{Version: v})
		tr.end()
		if err != nil {
			return nil, err
		}
		results[i] = res
		if tr != nil {
			sizes["core.groups_"+versionKeys[i]] += float64(len(res.Groups))
		}
	}
	for i, res := range results {
		tr.begin("spmd.estimate")
		cost, err := spmd.Estimate(res, w.sp2)
		tr.end()
		if err != nil {
			return nil, err
		}
		c.bytes[i] = cost.Bytes
		c.msgs[i] = res.TotalMessages()
		c.counts[i] = map[string]int{}
		for _, g := range res.Groups {
			kind := "NNC" // as the paper's table: everything but reductions
			if g.Kind == core.KindReduce {
				kind = "SUM"
			}
			c.counts[i][kind]++
		}
	}
	tr.begin("bound.compute")
	c.bound = bound.Compute(a).TotalBytes
	tr.end()
	return c, nil
}

// replayAnalysisLayers calls the layers under core.NewAnalysis
// directly, each in its own span, and adds the size of what each
// produced to sizes.
func replayAnalysisLayers(u *sem.Unit, tr *recorder, sizes map[string]float64) error {
	tr.begin("scalarize")
	scal, err := scalarize.Scalarize(u)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("cfg.build")
	g := cfg.Build(scal.Body)
	err = g.Validate()
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("dom.new")
	t := dom.New(g)
	tr.end()
	tr.begin("ssa.build")
	info := ssa.Build(g, t, func(name string) bool {
		_, ok := u.Arrays[name]
		return ok
	})
	err = info.Validate()
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("dep.new")
	dep.New(u)
	tr.end()
	sizes["scalarize.stmts_out"] += float64(countStmts(scal.Body))
	sizes["cfg.blocks"] += float64(len(g.Blocks))
	sizes["ssa.defs"] += float64(len(info.Defs) + len(info.Phis) + len(info.Entries))
	return nil
}

func countStmts(body []ast.Stmt) int {
	n := 0
	for _, st := range body {
		n++
		switch st := st.(type) {
		case *ast.DoStmt:
			n += countStmts(st.Body)
		case *ast.IfStmt:
			n += countStmts(st.Then) + countStmts(st.Else)
		}
	}
	return n
}

// check holds every program's static counts against the hand-written
// Fig. 10(a) rows and the lower bound against every estimate.
func (w *compileSuite) check(_ int, out any) error {
	pass := out.([]*compiled)
	msgs, bytes := 0, 0.0
	w.lastGaps = w.lastGaps[:0]
	for _, c := range pass {
		rows := w.expected[c.key]
		if len(rows) == 0 {
			return fmt.Errorf("%s: no expected/fig10a.json row", c.key)
		}
		kinds := 0
		for _, row := range rows {
			want := [3]int{row.Orig, row.NoRed, row.Comb}
			for i := range versions {
				if got := c.counts[i][row.Kind]; got != want[i] {
					return fmt.Errorf("%s %s %s: %d static call sites, Fig. 10(a) says %d", c.key, row.Kind, versionKeys[i], got, want[i])
				}
			}
			kinds++
		}
		for i := range versions {
			if len(c.counts[i]) > kinds {
				return fmt.Errorf("%s %s: kinds %v, Fig. 10(a) has %d rows", c.key, versionKeys[i], c.counts[i], kinds)
			}
			if c.bound > c.bytes[i] {
				return fmt.Errorf("%s %s: lower bound %g B exceeds the estimate %g B", c.key, versionKeys[i], c.bound, c.bytes[i])
			}
		}
		msgs += c.msgs[2]
		bytes += c.bytes[2]
		w.lastGaps = append(w.lastGaps, c.bytes[2]/c.bound)
		if !c.traced {
			w.perProgMS[c.key] = append(w.perProgMS[c.key], c.ms)
		}
	}
	w.lastMsgs, w.lastBytes = msgs, bytes
	return nil
}

// comm is Σ over the suite of the comb version's static call sites and
// estimated bytes; both are the same on every pass.
func (w *compileSuite) comm() (float64, float64) { return float64(w.lastMsgs), w.lastBytes }

func (w *compileSuite) layers(m metrics, lf map[string]*layerFold) error {
	// span name → metric prefix ("<prefix>us_p50", "<prefix>allocs").
	for _, l := range [][2]string{
		{"parser.parse", "parser.parse_"}, {"sem.analyze", "sem.analyze_"},
		{"scalarize", "scalarize."}, {"cfg.build", "cfg.build_"},
		{"dom.new", "dom.new_"}, {"ssa.build", "ssa.build_"},
		{"core.place_orig", "core.place_orig_"}, {"core.place_nored", "core.place_nored_"},
		{"core.place_comb", "core.place_comb_"},
		{"spmd.estimate", "spmd.estimate_"}, {"bound.compute", "bound.compute_"},
	} {
		m[l[1]+"us_p50"], m[l[1]+"allocs"] = lf[l[0]].p50()
	}
	// NewAnalysis minus the replayed child layers, op by op: what is
	// left is entry classification and Earliest/Latest.
	whole := lf["core.analysis"]
	if whole == nil {
		return fmt.Errorf("no traced op ran; raise -seconds")
	}
	var selfUS, selfAllocs []float64
	for op, us := range whole.selfUS {
		allocs := whole.allocs[op]
		for _, child := range []string{"scalarize", "cfg.build", "dom.new", "ssa.build", "dep.new"} {
			us -= lf[child].selfUS[op]
			allocs -= lf[child].allocs[op]
		}
		selfUS = append(selfUS, us)
		selfAllocs = append(selfAllocs, allocs)
	}
	m["core.analysis_self_us_p50"] = median(selfUS)
	m["core.analysis_self_allocs"] = median(selfAllocs)

	parseUS, _ := lf["parser.parse"].p50()
	srcKB := 0.0
	for _, pr := range w.progs {
		srcKB += float64(len(pr.Source)) / 1024
	}
	m["parser.src_kb_per_s"] = srcKB / (parseUS / 1e6)
	for name, v := range w.sizes {
		m[name] = v
	}

	var perProg []float64
	for _, pr := range w.progs {
		key := pr.Bench + "/" + pr.Routine
		p50 := median(w.perProgMS[key])
		m["compile."+strings.ReplaceAll(key, "/", "-")+"_ms_p50"] = p50
		perProg = append(perProg, p50)
	}
	m["compile.geomean_ms"] = geomean(perProg)
	m["bound.gap_ratio_geomean"] = geomean(w.lastGaps)
	return nil
}
