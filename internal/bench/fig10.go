package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/obs"
	"gcao/internal/spmd"
)

// CountRow is one Fig. 10(a) row: static communication call-site
// counts under the three compiler versions.
type CountRow struct {
	Bench, Routine string
	CommType       string
	Orig, NoRed    int
	Comb           int
}

// PaperCounts reproduces the Fig. 10(a) table published in the paper
// for comparison in EXPERIMENTS.md.
var PaperCounts = []CountRow{
	{"shallow", "main", "NNC", 20, 14, 8},
	{"gravity", "main", "NNC", 8, 8, 4},
	{"gravity", "main", "SUM", 8, 8, 2},
	{"trimesh", "normdot", "NNC", 24, 24, 4},
	{"trimesh", "gauss", "NNC", 13, 13, 4},
	{"hydflo", "flux", "NNC", 52, 30, 6},
	{"hydflo", "hydro", "NNC", 12, 12, 6},
}

// countKinds aggregates a result's groups into the two columns the
// paper reports: NNC (including the rare general patterns) and SUM.
func countKinds(res *core.Result) map[string]int {
	out := map[string]int{}
	for _, g := range res.Groups {
		switch g.Kind {
		case core.KindReduce:
			out["SUM"]++
		default:
			out["NNC"]++
		}
	}
	return out
}

// StaticCounts compiles a program at size n on p processors and returns
// the per-comm-type rows. rec, when non-nil, receives the three
// placements' phase spans, elimination counters and decision records.
func StaticCounts(pr *Program, n, p int, rec *obs.Recorder) ([]CountRow, error) {
	end := rec.Start("bench:" + pr.Bench + "/" + pr.Routine)
	defer end()
	a, err := pr.Compile(n, p)
	if err != nil {
		return nil, err
	}
	byVersion := map[core.Version]map[string]int{}
	for _, v := range []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine} {
		res, err := a.Place(core.Options{Version: v, Obs: rec})
		if err != nil {
			return nil, err
		}
		byVersion[v] = countKinds(res)
	}
	kinds := map[string]bool{}
	for _, m := range byVersion {
		for k := range m {
			kinds[k] = true
		}
	}
	var kindList []string
	for k := range kinds {
		kindList = append(kindList, k)
	}
	sort.Strings(kindList) // NNC before SUM, as in the paper's table
	var rows []CountRow
	for _, k := range kindList {
		rows = append(rows, CountRow{
			Bench: pr.Bench, Routine: pr.Routine, CommType: k,
			Orig:  byVersion[core.VersionOrig][k],
			NoRed: byVersion[core.VersionRedund][k],
			Comb:  byVersion[core.VersionCombine][k],
		})
	}
	return rows, nil
}

// WriteFig10a renders the table like the paper's Fig. 10(a), each row
// beside the counts the paper published for it ("-" where it has none).
func WriteFig10a(w io.Writer, rows []CountRow) {
	fmt.Fprintf(w, "%-9s %-9s %-5s | %6s %6s %6s | %6s %6s %6s\n",
		"Benchmark", "Routine", "Comm", "orig", "nored", "comb", "paper", "paper", "paper")
	for _, r := range rows {
		po, pn, pc := "-", "-", "-"
		for _, p := range PaperCounts {
			if p.Bench == r.Bench && p.Routine == r.Routine && p.CommType == r.CommType {
				po, pn, pc = fmt.Sprint(p.Orig), fmt.Sprint(p.NoRed), fmt.Sprint(p.Comb)
			}
		}
		fmt.Fprintf(w, "%-9s %-9s %-5s | %6d %6d %6d | %6s %6s %6s\n",
			r.Bench, r.Routine, r.CommType, r.Orig, r.NoRed, r.Comb, po, pn, pc)
	}
}

// ---------------------------------------------------------------------
// Fig. 10(b)–(f): normalized running-time bars per problem size.

// ChartPoint is one problem size of one chart: the three versions'
// normalized CPU/network segments.
type ChartPoint struct {
	N    int
	Bars []spmd.Bar
}

// Chart is one of the paper's five bar charts.
type Chart struct {
	ID        string // "b".."f"
	Title     string
	Machine   string
	Bench     string
	Routines  []string
	Procs     int
	Sizes     []int
	Points    []ChartPoint
	CommRatio []float64 // comb network time / orig network time per size
}

// ChartSpecs lists the paper's five charts with their size sweeps.
// The sizes follow Fig. 10; the largest 3-d sizes are trimmed to keep
// the analytic sweep instant while covering the same regime.
func ChartSpecs() []Chart {
	return []Chart{
		{ID: "b", Title: "SP2 shallow, P=25", Machine: "SP2", Bench: "shallow", Routines: []string{"main"}, Procs: 25,
			Sizes: []int{100, 125, 150, 175, 200, 225, 250, 275}},
		{ID: "c", Title: "SP2 gravity, P=25", Machine: "SP2", Bench: "gravity", Routines: []string{"main"}, Procs: 25,
			Sizes: []int{100, 125, 150, 175, 200, 225, 250, 275, 300, 325}},
		{ID: "d", Title: "NOW shallow, P=8", Machine: "NOW", Bench: "shallow", Routines: []string{"main"}, Procs: 8,
			Sizes: []int{400, 450, 500}},
		{ID: "e", Title: "NOW gravity, P=8", Machine: "NOW", Bench: "gravity", Routines: []string{"main"}, Procs: 8,
			Sizes: []int{100, 124, 150, 174, 200, 224, 250, 274}},
		{ID: "f", Title: "NOW trimesh, P=8", Machine: "NOW", Bench: "trimesh", Routines: []string{"normdot"}, Procs: 8,
			Sizes: []int{192, 256, 320}},
		{ID: "f2", Title: "NOW hydflo, P=8", Machine: "NOW", Bench: "hydflo", Routines: []string{"flux"}, Procs: 8,
			Sizes: []int{28, 32, 40, 48, 56, 64}},
	}
}

// RunChart fills one chart spec with estimated bars.
func RunChart(spec Chart) (Chart, error) {
	m, err := machine.ByName(spec.Machine)
	if err != nil {
		return Chart{}, err
	}
	pr, err := ByName(spec.Bench, spec.Routines[0])
	if err != nil {
		return Chart{}, err
	}
	for _, n := range spec.Sizes {
		a, err := pr.Compile(n, spec.Procs)
		if err != nil {
			return Chart{}, err
		}
		bars, err := spmd.EstimateVersions(a, m)
		if err != nil {
			return Chart{}, err
		}
		spec.Points = append(spec.Points, ChartPoint{N: n, Bars: bars})
		origNet := bars[0].Raw.Net
		combNet := bars[len(bars)-1].Raw.Net
		ratio := 0.0
		if origNet > 0 {
			ratio = combNet / origNet
		}
		spec.CommRatio = append(spec.CommRatio, ratio)
	}
	return spec, nil
}

// WriteChart renders a chart as a text table plus ASCII bars, the same
// series the paper plots.
func WriteChart(w io.Writer, c Chart) {
	fmt.Fprintf(w, "Fig.10(%s) %s\n", c.ID, c.Title)
	fmt.Fprintf(w, "%6s  %-7s %8s %8s %8s   %s\n", "n", "version", "cpu", "net", "total", "normalized total (bar)")
	for _, pt := range c.Points {
		for _, b := range pt.Bars {
			total := b.CPU + b.Net
			bar := strings.Repeat("#", int(total*40+0.5))
			fmt.Fprintf(w, "%6d  %-7s %8.3f %8.3f %8.3f   %s\n", pt.N, b.Version, b.CPU, b.Net, total, bar)
		}
	}
	fmt.Fprintln(w)
}
