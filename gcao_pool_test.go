package gcao_test

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"gcao"
	"gcao/internal/bench"
	"gcao/internal/native"
	"gcao/internal/spmd"
)

func placedShallow(t *testing.T, n, procs int) *gcao.Placed {
	t.Helper()
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		t.Fatal(err)
	}
	c, err := gcao.Compile(pr.Source, gcao.Config{Params: pr.Params(n), Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Place(gcao.Combine, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReleaseContract: Release hands a result's engine to the next run
// (the same memory image comes back), twice is once, a result of the
// package-level functions has nothing to hand back, and a result never
// released keeps its engine, so the next run builds another.
func TestReleaseContract(t *testing.T) {
	// One P and no collection: what is put into a sync.Pool is what the
	// next Get returns.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := placedShallow(t, 12, 4)
	m := gcao.SP2()

	kept, err := p.Simulate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Simulate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.Mem == kept.Mem {
		t.Fatal("a run was handed the memory image of a result that was never released")
	}
	want := append([]float64(nil), kept.Mem.Canonical("p")...)
	second.Release()
	second.Release()
	third, err := p.Simulate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	fourth, err := p.Simulate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !raceEnabled && third.Mem != second.Mem {
		t.Error("the run after a Release did not reuse the released engine")
	}
	if fourth.Mem == third.Mem || fourth.Mem == kept.Mem {
		t.Error("releasing one result twice handed its engine to two runs")
	}
	for _, r := range []*spmd.RunResult{kept, third, fourth} {
		if !reflect.DeepEqual(r.Mem.Canonical("p"), want) {
			t.Error("results of one placement differ")
		}
	}

	nat, err := p.RunNative(nil)
	if err != nil {
		t.Fatal(err)
	}
	natMem := nat.Mem
	if err := native.Diff(nat, kept); err != nil {
		t.Error(err)
	}
	nat.Release()
	nat.Release()
	prof, err := p.RunNative(gcao.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if !raceEnabled && prof.Mem != natMem {
		t.Error("the profiled run did not reuse the engine the unprofiled one released")
	}
	if prof.Profile == nil || len(prof.Stats.Ops) == 0 {
		t.Errorf("profiled run on a pooled engine: profile %v, ops %v", prof.Profile, prof.Stats.Ops)
	}
	ops := prof.Stats.Ops
	prof.Release()
	again, err := p.RunNative(nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Profile != nil {
		t.Error("an unprofiled run on an engine that was profiled before has a profile")
	}
	if !reflect.DeepEqual(ops, again.Stats.Ops) || reflect.ValueOf(ops).Pointer() == reflect.ValueOf(again.Stats.Ops).Pointer() {
		t.Errorf("a released result's operation counts %v are not its own (the next run's: %v)", ops, again.Stats.Ops)
	}

	// Results of the package-level functions own their engines.
	sim, err := spmd.RunParallel(p.Result, m, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim.Release()
	eng, err := native.NewEngine(p.Result, 4)
	if err != nil {
		t.Fatal(err)
	}
	one, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	one.Release()
	if err := native.Diff(one, sim); err != nil {
		t.Error(err)
	}
}

// TestFailedRunReturnsItsEngine: a placement whose run fails — here with
// a stale read, its communication dropped — serves the next run, on both
// backends, to the same positioned error, and leaves no goroutine.
func TestFailedRunReturnsItsEngine(t *testing.T) {
	p := placedShallow(t, 12, 4)
	p.Result.Groups = nil
	before := runtime.NumGoroutine()
	var first [2]string
	for run := 0; run < 3; run++ {
		_, simErr := p.Simulate(gcao.SP2(), nil)
		_, natErr := p.RunNative(gcao.NewRecorder())
		for i, err := range []error{simErr, natErr} {
			switch {
			case err == nil:
				t.Fatalf("run %d: a placement without communication ran to the end", run)
			case run == 0:
				first[i] = err.Error()
			case i == 0 && err.Error() != first[i]:
				t.Errorf("run %d reports %q, run 0 %q", run, err, first[i])
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the failed runs, %d after", before, after)
	}
}

// TestPooledEnginesUnderConcurrency: eight goroutines running both
// backends on one placement share its pools without sharing an engine —
// every result is the sequential one (under -race, no two runs write one
// image) — and build no more engines per backend than can be in use at
// once plus the one a sync.Pool can strand in each other P's private
// slot, counted by the memory images the results carry. No collection
// meanwhile: two in a row empty the pools, as they are meant to.
func TestPooledEnginesUnderConcurrency(t *testing.T) {
	const workers, runs = 8, 50
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := placedShallow(t, 12, 4)
	m := gcao.SP2()
	ref, err := spmd.RunParallel(p.Result, m, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Mem.Canonical("p")
	var (
		mu     sync.Mutex
		images [2]map[any]bool
		wg     sync.WaitGroup
	)
	images[0], images[1] = map[any]bool{}, map[any]bool{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				if (w+i)%2 == 0 {
					out, err := p.Simulate(m, nil)
					if err != nil {
						t.Error(err)
						return
					}
					if out.Ledger.DynMessages != ref.Ledger.DynMessages || !reflect.DeepEqual(out.Mem.Canonical("p"), want) {
						t.Errorf("worker %d run %d: simulated result differs from the sequential one", w, i)
					}
					mu.Lock()
					images[0][out.Mem] = true
					mu.Unlock()
					out.Release()
				} else {
					out, err := p.RunNative(gcao.NewRecorder())
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(out.Mem.Canonical("p"), want) {
						t.Errorf("worker %d run %d: native result differs from the sequential one", w, i)
					}
					mu.Lock()
					images[1][out.Mem] = true
					mu.Unlock()
					out.Release()
				}
			}
		}(w)
	}
	wg.Wait()
	for i, backend := range []string{"simulator", "native"} {
		if n := len(images[i]); !raceEnabled && n > workers+runtime.GOMAXPROCS(0)-1 {
			t.Errorf("%d %s engines built for %d concurrent callers", n, backend, workers)
		}
	}
}

// TestPlacedVerifyNative: every Fig. 10 routine under every strategy at
// P=4, at the functional sizes hpfc verify runs (n=8 for shallow and
// trimesh, 6 for the rest), ends in the same state — memory, validity and
// scalars, bit for bit — on the native backend as on the simulator, both
// run from the placement's lowered program and pools; and the simulator
// run ends where the sequential program does (Verify).
func TestPlacedVerifyNative(t *testing.T) {
	for _, pr := range bench.Programs() {
		n := 6
		if pr.Bench == "shallow" || pr.Bench == "trimesh" {
			n = 8
		}
		c, err := gcao.Compile(pr.Source, gcao.Config{Params: pr.Params(n), Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []gcao.Strategy{gcao.Vectorize, gcao.EarliestRedundancy, gcao.Combine} {
			p, err := c.Place(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.VerifyNative(); err != nil {
				t.Errorf("%s/%s %s: %v", pr.Bench, pr.Routine, s, err)
			}
			if err := p.Verify(); err != nil {
				t.Errorf("%s/%s %s: %v", pr.Bench, pr.Routine, s, err)
			}
		}
	}
}
