package gcao

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/cache"
	"gcao/internal/heapsize"
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

// within reports whether a count and a measurement are within a factor f
// of each other.
func within(est, real int64, f float64) bool {
	return float64(est) <= f*float64(real) && float64(real) <= f*float64(est)
}

// TestCompilationSizeTracksHeap holds what the compile and skeleton tiers
// charge, (*Compilation).Bytes and (*front).Bytes, against what the cached
// values keep alive, for each of the six Fig. 10(a) routines, within
// 1.25×. One-shot: the heap growth of a package-level Compile of its own
// copy of the text, retained, against the two counts together (it shares
// nothing). Cached: of eight sizes compiled through one Cache, each
// binding after the first grows the heap by its compilation's count — it
// holds the routine and the skeleton by pointer — and the first by that
// plus its front's, which holds the text, the parsed routine and the
// shared skeleton.
func TestCompilationSizeTracksHeap(t *testing.T) {
	const copies = 8
	var sumReal, sumEst int64
	check := func(what string, est, real int64) {
		t.Helper()
		if !within(est, real, 1.25) {
			t.Errorf("%s: charged %d B, off by more than 1.25x from the %d B it keeps alive", what, est, real)
		}
	}
	for _, pr := range bench.Programs() {
		name := pr.Bench + "/" + pr.Routine
		kept := make([]*Compilation, copies)
		before := liveHeap()
		for i := range kept {
			c, err := Compile(strings.Clone(pr.Source), Config{Params: pr.Params(pr.DefaultN), Procs: 25})
			if err != nil {
				t.Fatal(err)
			}
			kept[i] = c
		}
		real := int64(liveHeap()-before) / copies
		a := kept[0].Analysis
		k := &front{routine: a.Unit.Routine, source: pr.Source}
		if a.SizeFree() {
			k.shared = a.Skeleton
		}
		estSkel := k.Bytes()
		est := estSkel + kept[0].Bytes()
		runtime.KeepAlive(kept)
		t.Logf("%s: %d blocks, %d entries: one-shot heap %d B, charge %d B (%.2fx)",
			name, len(a.G.Blocks), len(a.Entries), real, est, float64(est)/float64(real))
		check(name+" one-shot", est, real)
		sumReal, sumEst = sumReal+real, sumEst+est

		c := NewCache(CacheOptions{})
		kept = make([]*Compilation, copies)
		var src string
		compile := func(i int) {
			comp, _, err := c.Compile(src, Config{Params: pr.Params(pr.DefaultN + i), Procs: 25})
			if err != nil {
				t.Fatal(err)
			}
			kept[i] = comp
		}
		before = liveHeap()
		src = strings.Clone(pr.Source)
		compile(0)
		first := liveHeap()
		for i := 1; i < copies; i++ {
			compile(i)
		}
		binding := int64(liveHeap()-first) / (copies - 1)
		skel := int64(first-before) - binding
		estBinding := kept[copies-1].Bytes()
		runtime.KeepAlive(kept)
		runtime.KeepAlive(c)
		t.Logf("%s: cached: a binding %d B, charge %d B (%.2fx); the skeleton %d B, charge %d B (%.2fx)",
			name, binding, estBinding, float64(estBinding)/float64(binding), skel, estSkel, float64(estSkel)/float64(skel))
		check(name+" binding", estBinding, binding)
		check(name+" skeleton", estSkel, skel)
	}
	t.Logf("suite: one-shot heap %d B, charge %d B (%.2fx)", sumReal, sumEst, float64(sumEst)/float64(sumReal))
	check("suite", sumEst, sumReal)
}

// tierSrc has array-section statements, so its skeleton is one binding's
// own: the compile tier charges it with the compilation, the skeleton
// tier holds only the parsed routine and the text.
const tierSrc = `
routine sections(n)
real a(n), b(n)
!hpf$ distribute (block) :: a, b
do i = 1, n
b(i) = i
enddo
a(2:n-1) = b(1:n-2) + b(3:n)
b(1:n:2) = a(1:n:2) * 0.5
end
`

// TestTierChargesCounted: through one Cache, eight bindings of a size-free
// Fig. 10(a) routine and two of a source with array statements. Each tier
// is charged the sum of its resident values' counts, and the skeleton is
// charged where it is held — with the compilation when it is a binding's
// own, with the front when every binding shares it.
func TestTierChargesCounted(t *testing.T) {
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(CacheOptions{})
	var comps []*Compilation
	compile := func(src string, params map[string]int) *Compilation {
		comp, _, err := c.Compile(src, Config{Params: params, Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, comp)
		return comp
	}
	for i := range 8 {
		if comp := compile(pr.Source, pr.Params(pr.DefaultN+i)); !comp.Analysis.SizeFree() {
			t.Fatalf("%s/%s is not size-free", pr.Bench, pr.Routine)
		}
	}
	var own []*Compilation
	for _, n := range []int{12, 33} {
		comp := compile(tierSrc, map[string]int{"n": n})
		if comp.Analysis.SizeFree() {
			t.Fatal("a source with array statements is size-free")
		}
		own = append(own, comp)
	}
	if own[0].Analysis.Skeleton == own[1].Analysis.Skeleton {
		t.Fatal("two bindings of a source with array statements share a skeleton")
	}

	var compBytes int64
	for _, comp := range comps {
		compBytes += comp.Bytes()
	}
	fronts := [2]*front{}
	for i, src := range []string{pr.Source, tierSrc} {
		v, ok := c.skeleton.Get([]byte(cache.Fingerprint("gcao-skeleton-v1", src, "")))
		if !ok {
			t.Fatalf("the skeleton tier holds no front for source %d", i)
		}
		fronts[i] = v.(*front)
	}
	st := c.Stats()
	if st.Compile.Bytes != compBytes || st.Compile.Entries != len(comps) {
		t.Errorf("compile tier: %d entries charged %d B; %d compilations count %d B", st.Compile.Entries, st.Compile.Bytes, len(comps), compBytes)
	}
	if sum := fronts[0].Bytes() + fronts[1].Bytes(); st.Skeleton.Bytes != sum || st.Skeleton.Entries != 2 {
		t.Errorf("skeleton tier: %d entries charged %d B; two fronts count %d B", st.Skeleton.Entries, st.Skeleton.Bytes, sum)
	}

	if fronts[0].shared != comps[0].Analysis.Skeleton {
		t.Fatal("the size-free front does not hold the skeleton its bindings share")
	}
	if k := fronts[1]; k.shared != nil || k.Bytes() != heapsize.Of(k)+k.routine.Bytes+int64(len(tierSrc)) {
		t.Errorf("the front of a source with array statements charges %d B, more than its routine and text", k.Bytes())
	}
	if n := testing.AllocsPerRun(10, func() { _, _, _ = comps[0].Bytes(), own[0].Bytes(), fronts[0].Bytes() }); n != 0 {
		t.Errorf("counting a compilation and a front allocates %.0f times", n)
	}
	for _, comp := range comps {
		a := comp.Analysis
		rest := heapsize.Of(comp) + int64(len(comp.fingerprint)) + a.Bytes() + a.Unit.Bytes()
		sk := a.Skeleton.Bytes()
		if a.SizeFree() && comp.Bytes() != rest {
			t.Errorf("a size-free binding charges %d B, not the %d B beside its shared skeleton", comp.Bytes(), rest)
		}
		if !a.SizeFree() && comp.Bytes() != rest+sk {
			t.Errorf("a binding with its own skeleton charges %d B, not %d B with its %d B skeleton", comp.Bytes(), rest+sk, sk)
		}
	}
}

// TestPlacedSizeTracksHeap holds what the place tier charges a placement,
// (*Placed).Bytes, against what it keeps alive, within 1.25×: never run,
// the placement alone; once a run has lowered it, with its Program (the
// pooled engines are the collector's). For the six Fig. 10(a) routines under orig and comb at
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
				if !within(est, real, 1.25) {
					t.Errorf("%s: Bytes() = %d B is off by more than 1.25x from the %d B a placement keeps alive", name, est, real)
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
