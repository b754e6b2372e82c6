package gcao

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/machine"
	"gcao/internal/spmd"
)

// liveHeap returns the bytes of reachable heap objects.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// within2x reports whether an estimate and a measurement are within a
// factor of two of each other.
func within2x(est, real int64) bool { return within(est, real, 2) }

// within reports whether a count and a measurement are within a factor f
// of each other.
func within(est, real int64, f float64) bool {
	return float64(est) <= f*float64(real) && float64(real) <= f*float64(est)
}

// TestCompilationSizeTracksHeap holds the cache's admission estimates
// against what the cached values really keep alive, for each of the six
// Fig. 10(a) routines. One-shot: the heap growth of a package-level
// Compile, retained, is within 2× of skeletonSize + compilationSize (it
// shares nothing). Cached: of eight sizes compiled through one Cache, each
// binding after the first grows the heap by compilationSize within 2× —
// it holds the routine and the skeleton by pointer — and the first by
// that plus skeletonSize within 2×. Entries carry per-level section
// tables and a skeleton the whole SSA form, so neither share is a guess
// to leave unmeasured.
func TestCompilationSizeTracksHeap(t *testing.T) {
	const copies = 8
	var sumReal, sumEst int64
	for _, pr := range bench.Programs() {
		name := pr.Bench + "/" + pr.Routine
		kept := make([]*Compilation, copies)
		before := liveHeap()
		for i := range kept {
			c, err := Compile(pr.Source, Config{Params: pr.Params(pr.DefaultN), Procs: 25})
			if err != nil {
				t.Fatal(err)
			}
			kept[i] = c
		}
		real := int64(liveHeap()-before) / copies
		a := kept[0].Analysis
		estSkel := skeletonSize(&front{routine: a.Unit.Routine, shared: a.Skeleton, srcBytes: len(pr.Source)})
		est := estSkel + compilationSize(kept[0])
		runtime.KeepAlive(kept)
		t.Logf("%s: %d blocks, %d entries: one-shot heap %d B, estimate %d B (%.2fx)",
			name, len(a.G.Blocks), len(a.Entries), real, est, float64(est)/float64(real))
		if !within2x(est, real) {
			t.Errorf("%s: skeletonSize + compilationSize = %d B is off by more than 2x from the %d B a one-shot compilation keeps alive", name, est, real)
		}
		sumReal, sumEst = sumReal+real, sumEst+est

		c := NewCache(CacheOptions{})
		kept = make([]*Compilation, copies)
		compile := func(i int) {
			comp, _, err := c.Compile(pr.Source, Config{Params: pr.Params(pr.DefaultN + i), Procs: 25})
			if err != nil {
				t.Fatal(err)
			}
			kept[i] = comp
		}
		before = liveHeap()
		compile(0)
		first := liveHeap()
		for i := 1; i < copies; i++ {
			compile(i)
		}
		binding := int64(liveHeap()-first) / (copies - 1)
		skel := int64(first-before) - binding
		estBinding := compilationSize(kept[copies-1])
		runtime.KeepAlive(kept)
		runtime.KeepAlive(c)
		t.Logf("%s: cached: a binding %d B, estimate %d B (%.2fx); the skeleton %d B, estimate %d B (%.2fx)",
			name, binding, estBinding, float64(estBinding)/float64(binding), skel, estSkel, float64(estSkel)/float64(skel))
		if !within2x(estBinding, binding) {
			t.Errorf("%s: compilationSize %d B is off by more than 2x from the %d B one more binding keeps alive", name, estBinding, binding)
		}
		if !within2x(estSkel, skel) {
			t.Errorf("%s: skeletonSize %d B is off by more than 2x from the %d B the shared routine and skeleton keep alive", name, estSkel, skel)
		}
	}
	if !within2x(sumEst, sumReal) {
		t.Errorf("suite: estimate %d B vs heap %d B", sumEst, sumReal)
	}
}

// TestPlacedSizeTracksHeap holds what the place tier charges a placement,
// (*Placed).Bytes, against what it keeps alive: never run, the placement
// alone, within 2× (its Result is a few kilobytes, where a map's buckets
// and the allocator's size classes weigh most); once a run has lowered
// it, with its Program, within 1.25× (the pooled engines are the
// collector's). For the six Fig. 10(a) routines under orig and comb at
// P = 4 and 25, and at four times the size, where the layout's ownership
// tables grow and the statements do not.
func TestPlacedSizeTracksHeap(t *testing.T) {
	const copies = 8
	for _, pr := range bench.Programs() {
		for _, tc := range []struct{ n, procs int }{{pr.DefaultN, 4}, {pr.DefaultN, 25}, {4 * pr.DefaultN, 16}} {
			c, err := Compile(pr.Source, Config{Params: pr.Params(tc.n), Procs: tc.procs})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []Strategy{Vectorize, Combine} {
				name := fmt.Sprintf("%s/%s n=%d P=%d %v", pr.Bench, pr.Routine, tc.n, tc.procs, s)
				kept := make([]*Placed, copies)
				before := liveHeap()
				for i := range kept {
					if kept[i], err = c.Place(s, nil); err != nil {
						t.Fatal(err)
					}
				}
				placed := liveHeap()
				est := kept[0].Bytes()
				for _, p := range kept {
					p.Program()
				}
				lowered := liveHeap()
				estLowered := kept[0].Bytes()
				runtime.KeepAlive(kept)
				real, realLowered := int64(placed-before)/copies, int64(lowered-before)/copies
				t.Logf("%s: placed: heap %d B, charge %d B (%.2fx); lowered: heap %d B, charge %d B (%.2fx)",
					name, real, est, float64(est)/float64(real), realLowered, estLowered, float64(estLowered)/float64(realLowered))
				if !within(est, real, 2) {
					t.Errorf("%s: Bytes() = %d B is off by more than 2x from the %d B a placement keeps alive", name, est, real)
				}
				if !within(estLowered, realLowered, 1.25) {
					t.Errorf("%s: Bytes() = %d B is off by more than 1.25x from the %d B a lowered placement keeps alive", name, estLowered, realLowered)
				}
			}
		}
	}
}

// TestEstimateKeptPerMachine: the daemon estimates a cached placement on
// every estimated request, from whichever worker serves it, under either
// machine. Each answer is what a fresh spmd.Estimate walk says, and the
// placement keeps exactly one cost per machine asked about.
func TestEstimateKeptPerMachine(t *testing.T) {
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(pr.Source, Config{Params: pr.Params(16), Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Place(Combine, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		m := [...]Machine{SP2(), machine.NOW()}[g%2]
		want, err := spmd.Estimate(p.Result, m)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := p.Estimate(m); err != nil || got != want {
				t.Errorf("%s: Estimate() = %+v, %v; spmd.Estimate = %+v", m.Name, got, err, want)
			}
		}()
	}
	wg.Wait()
	if len(p.costs) != 2 {
		t.Errorf("the placement keeps %d costs for two machines", len(p.costs))
	}
}
