package bench

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"gcao/internal/core"
	"gcao/internal/core/bound"
)

// measuredCounts is this implementation's Fig. 10(a) table at the
// default sizes, P=25: what hpfc fig10a prints by default, and every
// program's processor count on the SP2. Six of seven rows match the paper exactly; the
// shallow "orig" row measures 18 against the paper's 20 because our
// shallow source elides the periodic-boundary copy statements the
// original benchmark also communicated for (see EXPERIMENTS.md).
var measuredCounts = []CountRow{
	{"shallow", "main", "NNC", 18, 14, 8},
	{"gravity", "main", "NNC", 8, 8, 4},
	{"gravity", "main", "SUM", 8, 8, 2},
	{"trimesh", "normdot", "NNC", 24, 24, 4},
	{"trimesh", "gauss", "NNC", 13, 13, 4},
	{"hydflo", "flux", "NNC", 52, 30, 6},
	{"hydflo", "hydro", "NNC", 12, 12, 6},
}

// TestFig10aCounts locks down the static message-count table.
func TestFig10aCounts(t *testing.T) {
	for _, pr := range Programs() {
		if pr.Procs["SP2"] != 25 {
			t.Fatalf("%s/%s runs on %d SP2 processors: the table at P=25 is not its SP2 row", pr.Bench, pr.Routine, pr.Procs["SP2"])
		}
	}
	rows, err := Fig10aTable(0, 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(measuredCounts) {
		for _, r := range rows {
			t.Logf("%+v", r)
		}
		t.Fatalf("rows = %d, want %d", len(rows), len(measuredCounts))
	}
	for i, want := range measuredCounts {
		if rows[i] != want {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], want)
		}
	}
}

// TestFig10aOrdering asserts the monotone structure the paper's table
// exhibits: comb <= nored <= orig everywhere, strict on every row for
// comb.
func TestFig10aOrdering(t *testing.T) {
	rows, err := Fig10aTable(0, 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.NoRed > r.Orig {
			t.Errorf("%s/%s %s: nored %d > orig %d", r.Bench, r.Routine, r.CommType, r.NoRed, r.Orig)
		}
		if r.Comb >= r.NoRed {
			t.Errorf("%s/%s %s: comb %d not below nored %d", r.Bench, r.Routine, r.CommType, r.Comb, r.NoRed)
		}
	}
}

// TestCountsStableAcrossSizes: static call-site counts are a compiler
// property and must not depend on the problem size within each
// benchmark's working range.
func TestCountsStableAcrossSizes(t *testing.T) {
	for _, pr := range Programs() {
		sizes := []int{pr.DefaultN, pr.DefaultN * 2}
		var prev []CountRow
		for _, n := range sizes {
			rows, err := StaticCounts(pr, n, 25, nil)
			if err != nil {
				t.Fatalf("%s/%s n=%d: %v", pr.Bench, pr.Routine, n, err)
			}
			if prev != nil {
				for i := range rows {
					if rows[i] != prev[i] {
						t.Errorf("%s/%s: counts changed between n=%d and n=%d: %+v vs %+v",
							pr.Bench, pr.Routine, sizes[0], n, prev[i], rows[i])
					}
				}
			}
			prev = rows
		}
	}
}

// TestCountsAcrossMachines: the same table holds at the NOW's P=8.
func TestCountsAtP8(t *testing.T) {
	for _, pr := range Programs() {
		rows, err := StaticCounts(pr, pr.DefaultN, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			for _, want := range measuredCounts {
				if want.Bench == r.Bench && want.Routine == r.Routine && want.CommType == r.CommType {
					if r != want {
						t.Errorf("P=8 %s/%s %s = %d/%d/%d, want %d/%d/%d",
							r.Bench, r.Routine, r.CommType, r.Orig, r.NoRed, r.Comb,
							want.Orig, want.NoRed, want.Comb)
					}
				}
			}
		}
	}
}

// TestChartsShape verifies the Fig. 10(b)–(f) regimes: comb never
// exceeds nored, nored never exceeds orig, communication cost drops by
// roughly 2x or more under comb, and the relative gain shrinks as the
// problem grows (communication amortizes).
func TestChartsShape(t *testing.T) {
	for _, spec := range ChartSpecs() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			c, err := RunChart(spec)
			if err != nil {
				t.Fatal(err)
			}
			var prevGain float64 = -1
			for i, pt := range c.Points {
				if len(pt.Bars) != 3 {
					t.Fatalf("n=%d: %d bars", pt.N, len(pt.Bars))
				}
				orig, nored, comb := pt.Bars[0], pt.Bars[1], pt.Bars[2]
				if nored.Net > orig.Net+1e-12 {
					t.Errorf("n=%d: nored net %v > orig %v", pt.N, nored.Net, orig.Net)
				}
				if comb.Net > nored.Net+1e-12 {
					t.Errorf("n=%d: comb net %v > nored %v", pt.N, comb.Net, nored.Net)
				}
				// The paper: communication cost reduced by ~2x or more.
				if ratio := c.CommRatio[i]; ratio > 0.6 {
					t.Errorf("n=%d: comb/orig network ratio %.2f, want <= 0.6", pt.N, ratio)
				}
				gain := 1.0 - (comb.CPU + comb.Net)
				if prevGain >= 0 && gain > prevGain+0.02 {
					t.Errorf("n=%d: overall gain %.3f grew with size (prev %.3f)", pt.N, gain, prevGain)
				}
				prevGain = gain
			}
		})
	}
}

var update = flag.Bool("update", false, "rewrite testdata/fig10_charts_golden.json from this revision's charts")

const chartsGoldenPath = "testdata/fig10_charts_golden.json"

// chartPointGolden is one (chart, n) of Fig. 10(b)–(f) as the golden
// file pins it: the point's communication lower bound and, per compiler
// version, the estimator's per-processor messages and bytes and the
// normalized bar segments.
type chartPointGolden struct {
	Chart      string          `json:"chart"`
	N          int             `json:"n"`
	BoundBytes float64         `json:"bound_bytes"`
	Versions   []versionGolden `json:"versions"`
}

type versionGolden struct {
	Version  string  `json:"version"`
	Messages float64 `json:"messages"`
	Bytes    float64 `json:"bytes"`
	NormCPU  float64 `json:"norm_cpu"`
	NormNet  float64 `json:"norm_net"`
}

// TestChartsGolden holds the Fig. 10(b)–(f) numbers across revisions:
// every chart × size × version must reproduce the checked-in messages,
// bytes and lower bound exactly and the normalized times to 1e-9
// relative (FMA contraction differs across architectures). The file was
// first written by the `runbench -out` sweep this test replaced.
func TestChartsGolden(t *testing.T) {
	var got []chartPointGolden
	for _, spec := range ChartSpecs() {
		c, err := RunChart(spec)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := ByName(spec.Bench, spec.Routines[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range c.Points {
			a, err := pr.Compile(pt.N, spec.Procs)
			if err != nil {
				t.Fatal(err)
			}
			g := chartPointGolden{Chart: spec.ID, N: pt.N, BoundBytes: bound.Compute(a).TotalBytes}
			for _, b := range pt.Bars {
				g.Versions = append(g.Versions, versionGolden{
					Version: b.Version.String(), Messages: b.Raw.Messages, Bytes: b.Raw.Bytes,
					NormCPU: b.CPU, NormNet: b.Net,
				})
			}
			got = append(got, g)
		}
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(chartsGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(chartsGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want []chartPointGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d chart points, golden has %d", len(got), len(want))
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	for i, w := range want {
		g := got[i]
		if g.Chart != w.Chart || g.N != w.N || g.BoundBytes != w.BoundBytes || len(g.Versions) != len(w.Versions) {
			t.Errorf("point %d = %s n=%d bound %v (%d versions), want %s n=%d bound %v (%d versions)",
				i, g.Chart, g.N, g.BoundBytes, len(g.Versions), w.Chart, w.N, w.BoundBytes, len(w.Versions))
			continue
		}
		for j, wv := range w.Versions {
			gv := g.Versions[j]
			if gv.Version != wv.Version || gv.Messages != wv.Messages || gv.Bytes != wv.Bytes ||
				!near(gv.NormCPU, wv.NormCPU) || !near(gv.NormNet, wv.NormNet) {
				t.Errorf("%s n=%d: %+v, want %+v", w.Chart, w.N, gv, wv)
			}
		}
	}
}

// TestVersionCostsConsistency: the placed message counts and the
// estimated network costs must order the same way.
func TestVersionCostsConsistency(t *testing.T) {
	pr, err := ByName("shallow", "main")
	if err != nil {
		t.Fatal(err)
	}
	a, err := pr.Compile(128, 25)
	if err != nil {
		t.Fatal(err)
	}
	type vc struct {
		msgs int
	}
	counts := map[core.Version]vc{}
	for _, v := range []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine} {
		res, err := a.Place(core.Options{Version: v})
		if err != nil {
			t.Fatal(err)
		}
		counts[v] = vc{msgs: res.TotalMessages()}
	}
	if !(counts[core.VersionCombine].msgs < counts[core.VersionRedund].msgs &&
		counts[core.VersionRedund].msgs < counts[core.VersionOrig].msgs) {
		t.Errorf("message counts not strictly ordered: %v", counts)
	}
}
