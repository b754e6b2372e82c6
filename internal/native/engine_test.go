package native_test

import (
	"fmt"
	"math"
	"reflect"
	goruntime "runtime"
	"sync"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/native"
	"gcao/internal/obs"
	"gcao/internal/plan"
	"gcao/internal/runtime"
	"gcao/internal/spmd"
)

func sameBitsAll(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// requireSameImage compares two memory images of one unit row by row —
// every processor's data and validity plane, ghost copies included — and
// the scalar maps, bit for bit, and checks the ghost hulls of the first.
func requireSameImage(t *testing.T, what string, got, want *runtime.Memory, gotScal, wantScal map[string]float64) {
	t.Helper()
	if err := got.CheckHulls(); err != nil {
		t.Errorf("%s: %v", what, err)
	}
	for _, name := range want.Unit.ArrayNames {
		g, w := got.View(name), want.View(name)
		for p := range w.Data {
			if !sameBitsAll(g.Data[p], w.Data[p]) {
				t.Errorf("%s: %s row of processor %d differs", what, name, p)
			}
			if !reflect.DeepEqual(g.Valid[p], w.Valid[p]) {
				t.Errorf("%s: %s validity plane of processor %d differs", what, name, p)
			}
		}
	}
	if len(gotScal) != len(wantScal) {
		t.Errorf("%s: scalars %v, want %v", what, gotScal, wantScal)
	}
	for k, v := range wantScal {
		if g, ok := gotScal[k]; !ok || math.Float64bits(g) != math.Float64bits(v) {
			t.Errorf("%s: scalar %s = %v, want %v", what, k, g, v)
		}
	}
}

// TestReusedEngineMatchesFresh: runs 1-4 of one engine — simulator at one
// shard and at GOMAXPROCS, native — leave what a run on a new engine
// leaves: memory image and validity planes, scalars, every field of the
// ledger (clocks bit for bit), the communication profile and attribution
// steps, the native traffic counts; with a recorder (or the profiler) on
// the odd runs and without on the even ones, so what one run attaches the
// next does not inherit. The fabric allocates on an engine's first run
// only, and the last native run still matches the simulator's.
func TestReusedEngineMatchesFresh(t *testing.T) {
	for _, name := range [][2]string{{"shallow", "main"}, {"gravity", "main"}, {"hydflo", "flux"}} {
		pr, err := bench.ByName(name[0], name[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []core.Version{core.VersionOrig, core.VersionCombine} {
			for _, p := range []int{4, 16} {
				t.Run(fmt.Sprintf("%s/%s/P%d", pr.Bench, v, p), func(t *testing.T) {
					requireReuseMatchesFresh(t, place(t, pr, 10, p, v), p)
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
	var lastSim *spmd.RunResult
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
			what := fmt.Sprintf("simulator j=%d run %d", j, run)
			var rec *obs.Recorder
			if run%2 == 1 {
				rec = obs.New()
			}
			out, err := eng.Run(m, rec)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			requireSameImage(t, what, out.Mem, fresh.Mem, out.Scalars, fresh.Scalars)
			if !reflect.DeepEqual(out.Ledger, fresh.Ledger) ||
				!sameBitsAll(out.Ledger.CPU, fresh.Ledger.CPU) || !sameBitsAll(out.Ledger.Net, fresh.Ledger.Net) {
				t.Errorf("%s: ledger differs:\n got %+v\nwant %+v", what, out.Ledger, fresh.Ledger)
			}
			if rec != nil {
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
			lastSim = out
		}
	}

	freshEng, err := native.NewEngine(res, p)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := freshEng.Run()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := native.NewEngine(res, p)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 4; run++ {
		what := fmt.Sprintf("native run %d", run)
		if run%2 == 1 {
			eng.EnableProfiling(0)
		} else {
			eng.DisableProfiling()
		}
		out, err := eng.Run()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		requireSameImage(t, what, out.Mem, fresh.Mem, out.Scalars, fresh.Scalars)
		g, w := out.Stats, fresh.Stats
		if g.Messages != w.Messages || g.Bytes != w.Bytes || g.WireBytes != w.WireBytes || g.Hops != w.Hops ||
			g.Collectives != w.Collectives || g.Barriers != w.Barriers || !reflect.DeepEqual(g.Ops, w.Ops) {
			t.Errorf("%s: stats %+v, want %+v", what, g, w)
		}
		if run > 1 && g.AllocBytes != 0 {
			t.Errorf("%s: the fabric allocated %d bytes on a warm engine", what, g.AllocBytes)
		}
		if (out.Profile != nil) != (run%2 == 1) {
			t.Errorf("%s: profile present = %v", what, out.Profile != nil)
		}
		if run == 4 {
			if err := native.Diff(out, lastSim); err != nil {
				t.Errorf("reused native engine against reused simulator engine: %v", err)
			}
		}
	}
}

// TestSharedProgramConcurrentEngines: one lowered Program under two
// simulator engines and two native engines at once — each goroutine with a
// pool of its own, so each builds an engine around the program and, from
// its second run on, resets and reuses it. Every run leaves the image a
// run on a fresh lowering leaves, rows and validity planes bit for bit,
// so they all agree with each other; under -race this is what holds that
// nothing reachable from a Program is written once Lower has returned.
func TestSharedProgramConcurrentEngines(t *testing.T) {
	for _, tc := range []struct {
		bench, routine string
		n, procs       int
	}{{"shallow", "main", 12, 4}, {"gravity", "main", 8, 4}, {"hydflo", "flux", 8, 9}} {
		pr, err := bench.ByName(tc.bench, tc.routine)
		if err != nil {
			t.Fatal(err)
		}
		a, err := pr.Compile(tc.n, tc.procs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Place(core.Options{Version: core.VersionCombine})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := spmd.Run(res, machine.SP2(), tc.procs)
		if err != nil {
			t.Fatal(err)
		}
		nat, err := native.Run(res, tc.procs)
		if err != nil {
			t.Fatal(err)
		}
		if err := native.Diff(nat, sim); err != nil {
			t.Fatal(err)
		}
		prog := plan.Lower(res)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var pool sync.Pool
				for run := 0; run < 3; run++ {
					what := fmt.Sprintf("%s/%s engine %d run %d", tc.bench, tc.routine, w, run)
					if w%2 == 0 {
						out, err := spmd.RunPooled(&pool, prog, machine.SP2(), tc.procs, nil)
						if err != nil {
							t.Error(err)
							return
						}
						requireSameImage(t, what+" (simulator)", out.Mem, sim.Mem, out.Scalars, sim.Scalars)
						if out.Ledger.DynMessages != sim.Ledger.DynMessages || out.Ledger.BytesMoved != sim.Ledger.BytesMoved {
							t.Errorf("%s: ledger %d messages %d bytes, fresh run %d / %d", what, out.Ledger.DynMessages, out.Ledger.BytesMoved, sim.Ledger.DynMessages, sim.Ledger.BytesMoved)
						}
						out.Release()
					} else {
						out, err := native.RunPooled(&pool, prog, tc.procs, nil, run == 1)
						if err != nil {
							t.Error(err)
							return
						}
						requireSameImage(t, what+" (native)", out.Mem, nat.Mem, out.Scalars, nat.Scalars)
						if out.Stats.Messages != nat.Stats.Messages {
							t.Errorf("%s: %d messages, fresh run %d", what, out.Stats.Messages, nat.Stats.Messages)
						}
						out.Release()
					}
				}
			}(w)
		}
		wg.Wait()
	}
}
