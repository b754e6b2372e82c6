package gcao_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gcao"
	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/core/bound"
	"gcao/internal/native"
	"gcao/internal/parser"
	"gcao/internal/sem"
)

// explain renders everything a compilation decides and reports: every
// entry with its positions and per-level sections, the decision log and
// the groups of the three placements, their estimates and the lower bound.
// Two compilations that render alike answer every request alike.
func explain(t testing.TB, c *gcao.Compilation) string {
	t.Helper()
	var b strings.Builder
	a := c.Analysis
	for _, e := range a.Entries {
		fmt.Fprintf(&b, "%s level=%d earliest=%s latest=%s candidates=%v coalesced=%t carriers=%v map=%+v\n",
			e, e.CommLevel, e.Earliest, e.Latest, e.Candidates, e.Coalesced, e.Carriers, e.Map)
		for l := 0; l <= len(e.Use().Stmt.Loops); l++ {
			n, ok := e.BytesAt(a, l)
			fmt.Fprintf(&b, "  at %d: %s %d B %t\n", l, e.SectionAt(a, l), n, ok)
		}
	}
	// A cache of its own, so the placement runs and logs here whatever
	// cache the compilation came out of.
	placer := gcao.NewCache(gcao.CacheOptions{})
	for _, s := range []gcao.Strategy{gcao.Vectorize, gcao.EarliestRedundancy, gcao.Combine} {
		rec := gcao.NewRecorder()
		p, _, err := placer.Place(c, s, rec)
		if err != nil {
			t.Fatalf("place %s: %v", s, err)
		}
		fmt.Fprintf(&b, "== %s: %d messages %v\n", s, p.Messages(), p.MessageCounts())
		for _, d := range rec.Decisions() {
			fmt.Fprintf(&b, "%s %v\n", d.Format(), d.Candidates)
		}
		for _, g := range p.Result.Groups {
			fmt.Fprintf(&b, "%s site=%s sources=%v\n", g, g.SiteID(), g.Sources())
		}
		cost, err := p.Estimate(gcao.SP2())
		if err != nil {
			t.Fatalf("estimate %s: %v", s, err)
		}
		fmt.Fprintf(&b, "estimate %+v\n", cost)
	}
	fmt.Fprintf(&b, "bound %+v\n", bound.Compute(c.Analysis))
	return b.String()
}

// sameAsCompile holds one cached compile of a known source against the
// package-level Compile of the same request: the same error text, or the
// same rendering byte for byte.
func sameAsCompile(t *testing.T, name string, c *gcao.Cache, src string, cfg gcao.Config) gcao.CompileOutcome {
	t.Helper()
	want, wantErr := gcao.Compile(src, cfg)
	got, out, err := c.Compile(src, cfg)
	if out.Compile != gcao.CacheMiss || out.Skeleton != gcao.CacheHit {
		t.Fatalf("%s: outcome %v, want a compile-tier miss on a resident skeleton", name, out)
	}
	if wantErr != nil || err != nil {
		if fmt.Sprint(wantErr) != fmt.Sprint(err) {
			t.Errorf("%s: from the skeleton: %v; Compile: %v", name, err, wantErr)
		}
		return out
	}
	if w, g := explain(t, want), explain(t, got); w != g {
		t.Errorf("%s: the compilation from the cached skeleton differs from Compile's:\n%s", name, firstDiff(w, g))
	}
	return out
}

func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range w {
		if i >= len(g) || w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  Compile:  %s\n  skeleton: %s", i+1, w[i], strings.Join(g[min(i, len(g)):min(i+1, len(g))], ""))
		}
	}
	return fmt.Sprintf("%d extra lines from the skeleton", len(g)-len(w))
}

// TestSkeletonMatchesMonolithic is the differential test of the skeleton
// tier: a Cache that has seen a source at another size answers a new size
// — sem and the instantiate half only — exactly as the package-level
// Compile, which builds everything from the text, does. The six Fig. 10(a)
// routines at five sizes on three grids, and 200 random programs (those
// with array statements build a skeleton per binding and share the parsed
// routine only).
func TestSkeletonMatchesMonolithic(t *testing.T) {
	for _, pr := range bench.Programs() {
		c := gcao.NewCache(gcao.CacheOptions{})
		if _, _, err := c.Compile(pr.Source, gcao.Config{Params: pr.Params(10), Procs: 4}); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{8, 16, 64, 129, 1000} {
			for _, procs := range []int{4, 16, 25} {
				name := fmt.Sprintf("%s/%s n=%d P=%d", pr.Bench, pr.Routine, n, procs)
				sameAsCompile(t, name, c, pr.Source, gcao.Config{Params: pr.Params(n), Procs: procs})
			}
		}
		if st := c.Stats().Skeleton; st.Misses != 1 || st.Entries != 1 {
			t.Errorf("%s/%s: skeleton tier %+v, want the one build", pr.Bench, pr.Routine, st)
		}
	}
	// Subscripts that read the parameter are not the skeleton's: each
	// binding folds its own n into them.
	c := gcao.NewCache(gcao.CacheOptions{})
	if _, _, err := c.Compile(paramSubscriptSrc, gcao.Config{Params: map[string]int{"n": 10}, Procs: 4}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{8, 16, 33, 1000} {
		sameAsCompile(t, fmt.Sprintf("parameter subscripts n=%d", n), c, paramSubscriptSrc, gcao.Config{Params: map[string]int{"n": n}, Procs: 4})
	}
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	sizeFree := 0
	for seed := 0; seed < seeds; seed++ {
		src := bench.RandomProgram(int64(seed))
		c := gcao.NewCache(gcao.CacheOptions{})
		first, _, err := c.Compile(src, gcao.Config{Params: map[string]int{"n": 12, "steps": 2}, Procs: 4})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if first.Analysis.SizeFree() {
			sizeFree++
		}
		sameAsCompile(t, fmt.Sprintf("seed %d", seed), c, src, gcao.Config{Params: map[string]int{"n": 16, "steps": 2}, Procs: 4})
	}
	t.Logf("%d of %d random programs are size-free", sizeFree, seeds)
}

// paramSubscriptSrc is size-free, and what its subscripts name depends on
// the binding: a(n) is the last element, a(n - i + 1) the mirror image.
const paramSubscriptSrc = `
routine mirror(n)
real a(n), b(n)
!hpf$ distribute (block) :: a, b
do i = 1, n
a(i) = i
enddo
do i = 2, n - 1
b(i) = a(i - 1) + a(n) + a(n - i + 1) + a(2 * i - i)
enddo
b(1) = a(n)
b(n) = a(1) + a(n / 2)
end
`

// arrayStmtSrc has array-section statements: the scalarizer bakes their
// evaluated bounds into the loops it creates, so its skeleton is one
// binding's own.
const arrayStmtSrc = `
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

// TestSkeletonNotSizeFree: a source with array statements compiles at two
// sizes to what Compile gives, parses once, and builds a skeleton per
// binding.
func TestSkeletonNotSizeFree(t *testing.T) {
	c := gcao.NewCache(gcao.CacheOptions{})
	recs := []*gcao.Recorder{gcao.NewRecorder(), gcao.NewRecorder(), gcao.NewRecorder()}
	first, _, err := c.Compile(arrayStmtSrc, gcao.Config{Params: map[string]int{"n": 12}, Procs: 4, Obs: recs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if first.Analysis.SizeFree() || first.Analysis.Scal.StmtsExpanded != 2 {
		t.Fatalf("%d array statements expanded, SizeFree %t", first.Analysis.Scal.StmtsExpanded, first.Analysis.SizeFree())
	}
	var comps []*gcao.Compilation
	for i, n := range []int{16, 33} {
		cfg := gcao.Config{Params: map[string]int{"n": n}, Procs: 4}
		sameAsCompile(t, fmt.Sprintf("n=%d", n), c, arrayStmtSrc, cfg)
		cfg.Params = map[string]int{"n": n + 100}
		cfg.Obs = recs[i+1]
		comp, _, err := c.Compile(arrayStmtSrc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, comp)
	}
	if comps[0].Analysis.Skeleton == comps[1].Analysis.Skeleton || comps[0].Analysis.Skeleton == first.Analysis.Skeleton {
		t.Error("two bindings of a source with array statements share a skeleton")
	}
	if comps[0].Analysis.Unit.Routine != first.Analysis.Unit.Routine || comps[1].Analysis.Unit.Routine != first.Analysis.Unit.Routine {
		t.Error("a binding of a known source does not hold the cached routine")
	}
	for i, want := range []map[string]int{{"parse": 1, "scalarize": 1}, {"parse": 0, "scalarize": 1}, {"parse": 0, "scalarize": 1}} {
		got := spanCounts(recs[i])
		for name, n := range want {
			if got[name] != n {
				t.Errorf("compile %d: %d %s spans, want %d (spans %v)", i, got[name], name, n, got)
			}
		}
	}
}

func spanCounts(recs ...*gcao.Recorder) map[string]int {
	out := map[string]int{}
	for _, rec := range recs {
		for _, s := range rec.Spans() {
			out[s.Name]++
		}
	}
	return out
}

// TestSkeletonNoPoisoning: a first request that fails — in the parser, in
// sem on a missing parameter or an empty dimension — gets the positioned
// error the package-level Compile gives and leaves the skeleton tier as it
// found it; the next valid binding builds the skeleton, the one after it
// hits it, and a failing binding after that still gets its own error.
func TestSkeletonNoPoisoning(t *testing.T) {
	const src = `
routine halo(n, m)
real a(n - 4, m), b(n - 4, m)
!hpf$ distribute (block, block) :: a, b
do i = 2, n - 5
do j = 1, m
b(i, j) = a(i - 1, j) + a(i + 1, j)
enddo
enddo
end
`
	good := func(n int) gcao.Config {
		return gcao.Config{Params: map[string]int{"n": n, "m": 8}, Procs: 4}
	}
	bad := []struct {
		name, src string
		cfg       gcao.Config
	}{
		{"missing parameter", src, gcao.Config{Params: map[string]int{"n": 12}, Procs: 4}},
		{"misnamed parameter", src, gcao.Config{Params: map[string]int{"n": 12, "k": 8}, Procs: 4}},
		{"empty dimension", src, good(4)},
		{"parse error", strings.Replace(src, "enddo\nend", "end", 1), good(12)},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, wantErr := gcao.Compile(tc.src, tc.cfg)
			if wantErr == nil {
				t.Fatal("the request compiles")
			}
			c := gcao.NewCache(gcao.CacheOptions{})
			fails := func(when string) {
				t.Helper()
				_, out, err := c.Compile(tc.src, tc.cfg)
				if err == nil || err.Error() != wantErr.Error() || out.Compile != gcao.CacheMiss {
					t.Fatalf("%s: outcome %v, error %v; Compile: %v", when, out, err, wantErr)
				}
			}
			fails("first request")
			if st := c.Stats(); st.Skeleton.Entries != 0 || st.Compile.Entries != 0 {
				t.Fatalf("a failed request left %+v behind", st)
			}
			if tc.src != src {
				return // no binding of a text that does not parse succeeds
			}
			if _, out, err := c.Compile(src, good(12)); err != nil || out.Skeleton != gcao.CacheMiss {
				t.Fatalf("first valid binding: outcome %v, err %v", out, err)
			}
			sameAsCompile(t, "second valid binding", c, src, good(16))
			fails("on the resident skeleton")
			if st := c.Stats().Skeleton; st.Entries != 1 || st.Misses != 2 {
				t.Errorf("skeleton tier %+v, want one entry built on the second miss", st)
			}
		})
	}
}

// TestSkeletonEviction: a skeleton evicted from its tier stays alive for
// the compilations that hold it and is rebuilt, once, for the next new
// size of its source.
func TestSkeletonEviction(t *testing.T) {
	c := gcao.NewCache(gcao.CacheOptions{MaxEntries: 1})
	pr, err := bench.ByName("trimesh", "gauss")
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(n int) gcao.Config { return gcao.Config{Params: pr.Params(n), Procs: 4} }
	held, _, err := c.Compile(pr.Source, cfg(12))
	if err != nil {
		t.Fatal(err)
	}
	before := explain(t, held)
	if _, _, err := c.Compile(arrayStmtSrc, gcao.Config{Params: map[string]int{"n": 12}, Procs: 4}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats().Skeleton; st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("skeleton tier %+v, want the first source evicted", st)
	}
	if explain(t, held) != before {
		t.Error("a compilation changed when its skeleton left the tier")
	}
	rebuilt, out, err := c.Compile(pr.Source, cfg(16))
	if err != nil || out.Skeleton != gcao.CacheMiss || rebuilt.Analysis.Skeleton == held.Analysis.Skeleton {
		t.Fatalf("next new size: outcome %v, err %v, skeleton shared with the evicted one: %t", out, err, rebuilt.Analysis.Skeleton == held.Analysis.Skeleton)
	}
	// The one-entry compile tier holds n=16 only, so n=12 compiles anew —
	// from the rebuilt skeleton.
	again, out, err := c.Compile(pr.Source, cfg(12))
	if err != nil || out.Compile != gcao.CacheMiss || out.Skeleton != gcao.CacheHit || again.Analysis.Skeleton != rebuilt.Analysis.Skeleton {
		t.Fatalf("after the rebuild: outcome %v, err %v", out, err)
	}
	if explain(t, again) != before {
		t.Error("the same request compiles differently from the rebuilt skeleton")
	}
}

// TestSkeletonSharedConcurrently: eight goroutines compile sixteen sizes
// of one never-seen source through one Cache, each placing, estimating,
// simulating and running native on its compilation while the others still
// instantiate the skeleton they all share. Exactly one of them parses and
// builds it, and every result is the one a sequential package-level
// Compile gives. Under -race this is what holds "a shared skeleton is
// never written after it is published".
func TestSkeletonSharedConcurrently(t *testing.T) {
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		rounds  = 2
		procs   = 4
	)
	src := pr.Source + "! TestSkeletonSharedConcurrently\n"
	params := func(i int) map[string]int { return map[string]int{"n": 8 + i, "steps": 1} }
	type result struct {
		text   string
		images map[string][]float64
	}
	execute := func(c *gcao.Compilation, place func(*gcao.Compilation) (*gcao.Placed, error)) (result, error) {
		res := result{text: explain(t, c), images: map[string][]float64{}}
		p, err := place(c)
		if err != nil {
			return res, err
		}
		sim, err := p.Simulate(gcao.SP2(), nil)
		if err != nil {
			return res, err
		}
		defer sim.Release()
		nat, err := p.RunNative(nil)
		if err != nil {
			return res, err
		}
		defer nat.Release()
		if err := native.Diff(nat, sim); err != nil {
			return res, err
		}
		for _, name := range c.Analysis.Unit.ArrayNames {
			res.images[name] = append([]float64(nil), sim.Mem.Canonical(name)...)
		}
		return res, nil
	}
	want := make([]result, workers*rounds)
	for i := range want {
		c, err := gcao.Compile(src, gcao.Config{Params: params(i), Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = execute(c, func(c *gcao.Compilation) (*gcao.Placed, error) { return c.Place(gcao.Combine, nil) }); err != nil {
			t.Fatal(err)
		}
	}

	cache := gcao.NewCache(gcao.CacheOptions{})
	recs := make([]*gcao.Recorder, workers*rounds)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			for i := g; i < len(want); i += workers {
				recs[i] = gcao.NewRecorder()
				c, _, err := cache.Compile(src, gcao.Config{Params: params(i), Procs: procs, Obs: recs[i]})
				if err != nil {
					t.Errorf("size %d: %v", i, err)
					return
				}
				got, err := execute(c, func(c *gcao.Compilation) (*gcao.Placed, error) {
					p, _, err := cache.Place(c, gcao.Combine, nil)
					return p, err
				})
				if err != nil {
					t.Errorf("size %d: %v", i, err)
					return
				}
				if got.text != want[i].text {
					t.Errorf("size %d: compiled concurrently from the shared skeleton:\n%s", i, firstDiff(want[i].text, got.text))
				}
				if !reflect.DeepEqual(got.images, want[i].images) {
					t.Errorf("size %d: the run differs from the sequential one", i)
				}
			}
		}()
	}
	close(gate)
	wg.Wait()
	if t.Failed() {
		return
	}
	spans := spanCounts(recs...)
	for _, name := range []string{"parse", "scalarize", "cfg", "dom", "ssa"} {
		if spans[name] != 1 {
			t.Errorf("%d %s spans across the %d compiles, want the one build (spans %v)", spans[name], name, len(recs), spans)
		}
	}
	if spans["sem"] != len(recs) || spans["entries"] != len(recs) {
		t.Errorf("spans %v: every binding runs sem and the instantiate half", spans)
	}
	st := cache.Stats()
	if st.Skeleton.Misses != 1 || st.Skeleton.Hits+st.Skeleton.InflightWaits != int64(len(recs))-1 || st.Compile.Misses != int64(len(recs)) {
		t.Errorf("tiers %+v: want one skeleton miss and %d hits or waits", st, len(recs)-1)
	}
}

// TestSkeletonHitPin pins what a known source at a new size costs through
// the library: no front-end or structural step runs — the request's
// recorder sees sem and the instantiate half only — and the compile
// allocates no more than a whole Compile less what a hit skips (parse and
// NewSkeleton on the same source), plus a small slack for the cache's own
// keys and entry. When the pin was last set (shallow, n = 64 → 65..):
// hit 152, Compile 231, skipped 97 (parse 41, NewSkeleton 56), so the
// relation reads 152 ≤ 134 + 24 and a hit that rebuilt the skeleton
// unrecorded (208) fails it. Before that the relation was "a hit under two
// thirds of Compile", which nearly bound (152 against a limit of 154) and
// shrank with every front-end saving. Absolute counts of the hit: 152
// once sem, the skeleton's layers and the candidate lists were carved
// from slabs and the scalarizer shared what it does not rewrite; 270
// against 753 for Compile before that, once the analysis carved its
// entries and level tables from slabs; 666 against 1,150 before that, once
// the front end allocated by the routine; 720 against 2,687 before that,
// 1,220 against 4,218 before the analysis moved onto dense indices.
func TestSkeletonHitPin(t *testing.T) {
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		t.Fatal(err)
	}
	c := gcao.NewCache(gcao.CacheOptions{})
	if _, _, err := c.Compile(pr.Source, gcao.Config{Params: pr.Params(64), Procs: 16}); err != nil {
		t.Fatal(err)
	}
	rec := gcao.NewRecorder()
	if _, out, err := c.Compile(pr.Source, gcao.Config{Params: pr.Params(65), Procs: 16, Obs: rec}); err != nil || out.Skeleton != gcao.CacheHit {
		t.Fatalf("outcome %v, err %v", out, err)
	}
	spans := spanCounts(rec)
	for _, name := range []string{"parse", "inline", "scalarize", "cfg", "dom", "ssa"} {
		if spans[name] != 0 {
			t.Errorf("a skeleton hit recorded %d %s spans", spans[name], name)
		}
	}
	for _, name := range []string{"sem", "entries", "earliest-latest", "level-tables"} {
		if spans[name] != 1 {
			t.Errorf("a skeleton hit recorded %d %s spans, want 1", spans[name], name)
		}
	}
	if rec.Counter("cache.skeleton.hit") != 1 || rec.Counter("cache.compile.miss") != 1 {
		t.Errorf("counters %v", rec.Counters())
	}
	if raceEnabled {
		return // the race detector moves stack allocations to the heap
	}
	n := 100
	hit := testing.AllocsPerRun(50, func() {
		n++
		if _, _, err := c.Compile(pr.Source, gcao.Config{Params: pr.Params(n), Procs: 16}); err != nil {
			t.Fatal(err)
		}
	})
	full := testing.AllocsPerRun(20, func() {
		if _, err := gcao.Compile(pr.Source, gcao.Config{Params: pr.Params(64), Procs: 16}); err != nil {
			t.Fatal(err)
		}
	})
	parse := testing.AllocsPerRun(20, func() {
		if _, err := parser.ParseRoutine(pr.Source); err != nil {
			t.Fatal(err)
		}
	})
	r, err := parser.ParseRoutine(pr.Source)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sem.Analyze(r, pr.Params(64), sem.Options{Procs: 16})
	if err != nil {
		t.Fatal(err)
	}
	skel := testing.AllocsPerRun(20, func() {
		if _, err := core.NewSkeleton(u, nil); err != nil {
			t.Fatal(err)
		}
	})
	const budget, slack = 340, 24
	t.Logf("compile-tier miss on a skeleton hit: %.0f allocs; Compile: %.0f; skipped: parse %.0f + NewSkeleton %.0f", hit, full, parse, skel)
	if hit > budget || hit > full-parse-skel+slack {
		t.Errorf("a known source at a new size allocates %.0f times: budget %d, and Compile's %.0f less the skipped %.0f plus %d",
			hit, budget, full, parse+skel, slack)
	}
}

// gateLog is a log sink that, once armed, parks the write naming an event
// until released, which holds a compile at the point that logs it.
type gateLog struct {
	event   string
	reached chan struct{}
	release chan struct{}
}

func (w *gateLog) Write(p []byte) (int, error) {
	if strings.Contains(string(p), w.event) {
		close(w.reached)
		<-w.release
	}
	return len(p), nil
}

// TestSkeletonBuildErrorIsTheBuildersOwn: a binding that waits on another
// binding's skeleton build does not inherit that binding's error. The
// builder — a request that misses a parameter — is held between parse and
// sem until a valid binding of the same source waits on its flight; the
// builder then fails as it always did, and the waiter builds the skeleton
// itself and compiles.
func TestSkeletonBuildErrorIsTheBuildersOwn(t *testing.T) {
	pr, err := bench.ByName("trimesh", "gauss")
	if err != nil {
		t.Fatal(err)
	}
	c := gcao.NewCache(gcao.CacheOptions{})
	gate := &gateLog{event: `"phase":"parse"`, reached: make(chan struct{}), release: make(chan struct{})}
	builderErr := make(chan error)
	go func() {
		rec := gcao.NewRecorder()
		rec.SetLog(gcao.NewLogger(gate, gcao.LogLevel(-4)), "") // debug: a line per phase
		_, _, err := c.Compile(pr.Source, gcao.Config{Params: map[string]int{}, Procs: 4, Obs: rec})
		builderErr <- err
	}()
	<-gate.reached
	type compiled struct {
		c   *gcao.Compilation
		out gcao.CompileOutcome
		err error
	}
	waiter := make(chan compiled)
	go func() {
		comp, out, err := c.Compile(pr.Source, gcao.Config{Params: pr.Params(12), Procs: 4})
		waiter <- compiled{comp, out, err}
	}()
	for c.Stats().Skeleton.InflightWaits == 0 {
		runtime.Gosched()
	}
	close(gate.release)
	_, wantErr := gcao.Compile(pr.Source, gcao.Config{Params: map[string]int{}, Procs: 4})
	if err := <-builderErr; err == nil || err.Error() != wantErr.Error() {
		t.Errorf("the builder's error: %v, want %v", err, wantErr)
	}
	got := <-waiter
	if got.err != nil || got.out.Skeleton != gcao.CacheMiss {
		t.Fatalf("the valid binding that waited: outcome %v, err %v; want its own build", got.out, got.err)
	}
	want, err := gcao.Compile(pr.Source, gcao.Config{Params: pr.Params(12), Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if w, g := explain(t, want), explain(t, got.c); w != g {
		t.Errorf("compiled after a failed build:\n%s", firstDiff(w, g))
	}
	if st := c.Stats().Skeleton; st.Entries != 1 || st.Misses != 2 || st.InflightWaits != 1 {
		t.Errorf("skeleton tier %+v, want a failed build, one wait on it, and the waiter's build", st)
	}
}
