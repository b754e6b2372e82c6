package spmd_test

import (
	"fmt"
	"math"
	"reflect"
	goruntime "runtime"
	"slices"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/obs"
	"gcao/internal/spmd"
)

// TestReusedEngineMatchesFresh: runs 1-4 of one simulator engine, at one
// shard and at GOMAXPROCS, leave what a run on a new engine leaves: every
// processor's rows and validity planes, the scalars, every field of the
// ledger (clocks bit for bit), the communication profile, the attribution
// steps and the counters — with a recorder on the odd runs and without on
// the even ones, so what one run attaches the next does not inherit. The
// native engine's half of the property is the native package's test of
// this name.
func TestReusedEngineMatchesFresh(t *testing.T) {
	for _, name := range [][2]string{{"shallow", "main"}, {"gravity", "main"}, {"hydflo", "flux"}} {
		pr, err := bench.ByName(name[0], name[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []core.Version{core.VersionOrig, core.VersionCombine} {
			for _, p := range []int{4, 16} {
				t.Run(fmt.Sprintf("%s/%s/P%d", pr.Bench, v, p), func(t *testing.T) {
					requireReuseMatchesFresh(t, placeBench(t, pr, p, v), p)
				})
			}
		}
	}
	// The benchmarks assign everything before they read it. This program
	// reads the zeros a memory image starts from and ends with ghost copies
	// valid, so a run that began on what the last one left would show.
	t.Run("reads-initial-state", func(t *testing.T) {
		src := "routine r(n)\nreal a(n), b(n)\n!hpf$ distribute (block) :: a, b\n" +
			"do i = 1, n\na(i) = a(i) + i\nenddo\ndo i = 2, n\nb(i) = b(i) + a(i - 1)\nenddo\nend\n"
		requireReuseMatchesFresh(t, placeSrc(t, src, map[string]int{"n": 12}, 4), 4)
	})
}

func requireReuseMatchesFresh(t *testing.T, res *core.Result, p int) {
	t.Helper()
	m := machine.SP2()
	same := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for _, j := range []int{1, goruntime.GOMAXPROCS(0)} {
		recF := obs.New()
		fresh, err := spmd.RunParallelObs(res, m, p, j, recF)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := spmd.NewEngine(res, p, j)
		if err != nil {
			t.Fatal(err)
		}
		for run := 1; run <= 4; run++ {
			what := fmt.Sprintf("j=%d run %d", j, run)
			var rec *obs.Recorder
			if run%2 == 1 {
				rec = obs.New()
			}
			out, err := eng.Run(m, rec)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if err := out.Mem.CheckHulls(); err != nil {
				t.Errorf("%s: %v", what, err)
			}
			for _, name := range fresh.Mem.Unit.ArrayNames {
				g, w := out.Mem.View(name), fresh.Mem.View(name)
				for q := range w.Data {
					if !same(g.Data[q], w.Data[q]) || !reflect.DeepEqual(g.ValidPlane(q), w.ValidPlane(q)) {
						t.Errorf("%s: %s row or validity plane of processor %d differs", what, name, q)
					}
				}
			}
			if stateHash(out) != stateHash(fresh) || !reflect.DeepEqual(out.Ledger, fresh.Ledger) || goldenOf(out) != goldenOf(fresh) {
				t.Errorf("%s: state or ledger differs:\n got %+v\nwant %+v", what, out.Ledger, fresh.Ledger)
			}
			if rec == nil {
				continue
			}
			if !reflect.DeepEqual(rec.CommProfile(), recF.CommProfile()) {
				t.Errorf("%s: communication profile differs", what)
			}
			if !reflect.DeepEqual(rec.Attribution(), recF.Attribution()) {
				t.Errorf("%s: attribution steps differ", what)
			}
			if !reflect.DeepEqual(rec.Counters(), recF.Counters()) {
				t.Errorf("%s: counters %v, want %v", what, rec.Counters(), recF.Counters())
			}
		}
	}
}
