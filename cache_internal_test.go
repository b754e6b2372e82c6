package gcao

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core/bound"
)

// liveHeap returns the bytes of reachable heap objects.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCompilationSizeTracksHeap holds the cache's admission estimate
// against what a cached compilation really keeps alive: the heap growth
// of compiling the six Fig. 10(a) routines, each retained, must be
// within 2× of compilationSize, per routine and over the suite. Entries
// carry per-level section tables, so the per-entry share is not a
// guess to leave unmeasured.
func TestCompilationSizeTracksHeap(t *testing.T) {
	const copies = 8
	var sumReal, sumEst int64
	for _, pr := range bench.Programs() {
		cfg := Config{Params: pr.Params(pr.DefaultN), Procs: 25}
		kept := make([]*Compilation, copies)
		before := liveHeap()
		for i := range kept {
			c, err := Compile(pr.Source, cfg)
			if err != nil {
				t.Fatal(err)
			}
			kept[i] = c
		}
		real := int64(liveHeap()-before) / copies
		est := compilationSize(kept[0])
		runtime.KeepAlive(kept)
		t.Logf("%s/%s: %d stmts, %d entries: heap %d B, estimate %d B (%.2fx)",
			pr.Bench, pr.Routine, len(kept[0].Analysis.G.Stmts), len(kept[0].Analysis.Entries),
			real, est, float64(est)/float64(real))
		if est > 2*real || real > 2*est {
			t.Errorf("%s/%s: compilationSize %d B is off by more than 2x from the %d B the compilation keeps alive",
				pr.Bench, pr.Routine, est, real)
		}
		sumReal, sumEst = sumReal+real, sumEst+est
	}
	if sumEst > 2*sumReal || sumReal > 2*sumEst {
		t.Errorf("suite: estimate %d B vs heap %d B", sumEst, sumReal)
	}
}

// TestLowerBoundComputedOnce: the daemon asks a cached compilation for
// its lower bound on every estimated request, from whichever worker
// serves it; every caller gets the one memoized answer, and it is what
// bound.Compute says.
func TestLowerBoundComputedOnce(t *testing.T) {
	pr, err := bench.ByName("hydflo", "flux")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(pr.Source, Config{Params: pr.Params(pr.DefaultN), Procs: 25})
	if err != nil {
		t.Fatal(err)
	}
	want := bound.Compute(c.Analysis)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := c.LowerBound(); !reflect.DeepEqual(got, want) {
				t.Errorf("LowerBound() = %+v, bound.Compute = %+v", got, want)
			}
		}()
	}
	wg.Wait()
	if len(want.Terms) == 0 || &c.LowerBound().Terms[0] != &c.LowerBound().Terms[0] {
		t.Error("LowerBound has no terms, or recomputed them on a later call")
	}
}
