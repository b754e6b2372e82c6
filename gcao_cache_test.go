package gcao_test

import (
	"sync"
	"testing"
	"time"

	"gcao"
	"gcao/internal/bench"
)

// twoMainSrc is a program with two distinct entry routines sharing one
// helper: compiled from "iterate" the program is the §7 example (two
// call sites combined), from "once" a single sweep. Distinct `main`
// selections must never collide in the cache.
const twoMainSrc = `
routine iterate(n, steps)
real a(n, n), ra(n, n)
!hpf$ distribute (block, block) :: a, ra
do i = 1, n
do j = 1, n
a(i, j) = i + 2 * j
ra(i, j) = 0
enddo
enddo
do it = 1, steps
call relaxstep(a, ra, n)
do i = 2, n - 1
do j = 2, n - 1
a(i, j) = a(i, j) + 0.1 * ra(i, j)
enddo
enddo
enddo
end

routine once(n)
real a(n, n), ra(n, n)
!hpf$ distribute (block, block) :: a, ra
do i = 1, n
do j = 1, n
a(i, j) = i - j
ra(i, j) = 0
enddo
enddo
call relaxstep(a, ra, n)
end

routine relaxstep(q, r, n)
real q(n, n), r(n, n)
do i = 2, n - 1
do j = 2, n - 1
r(i, j) = q(i - 1, j) + q(i + 1, j) + q(i, j - 1) + q(i, j + 1) - 4 * q(i, j)
enddo
enddo
end
`

func TestCacheCompileHitAndPlaceTiers(t *testing.T) {
	c := gcao.NewCache(gcao.CacheOptions{})
	cfg := gcao.Config{Params: map[string]int{"n": 12, "steps": 2}, Procs: 4}
	rec := gcao.NewRecorder()
	cfgObs := cfg
	cfgObs.Obs = rec

	comp1, cout, err := c.Compile(benchSource(t), cfgObs)
	if err != nil || cout.Compile != gcao.CacheMiss || cout.Skeleton != gcao.CacheMiss {
		t.Fatalf("first compile: outcome %v, err %v", cout, err)
	}
	comp2, cout, err := c.Compile(benchSource(t), cfg)
	if err != nil || cout.Compile != gcao.CacheHit {
		t.Fatalf("second compile: outcome %v, err %v", cout, err)
	}
	if comp1 != comp2 {
		t.Fatal("cache hit returned a different compilation")
	}
	// The outcomes flow into the request recorder's counters.
	if rec.Counter("cache.compile.miss") != 1 || rec.Counter("cache.skeleton.miss") != 1 {
		t.Fatalf("recorder counters = %v", rec.Counters())
	}

	p1, out, err := c.Place(comp1, gcao.Combine, nil)
	if err != nil || out != gcao.CacheMiss {
		t.Fatalf("first place: outcome %v, err %v", out, err)
	}
	p2, out, err := c.Place(comp2, gcao.Combine, nil)
	if err != nil || out != gcao.CacheHit {
		t.Fatalf("second place: outcome %v, err %v", out, err)
	}
	if p1 != p2 || p1.Messages() <= 0 {
		t.Fatalf("place hit wrong: %p vs %p, %d messages", p1, p2, p1.Messages())
	}
	// A different strategy is a different key.
	_, out, err = c.Place(comp1, gcao.Vectorize, nil)
	if err != nil || out != gcao.CacheMiss {
		t.Fatalf("other strategy: outcome %v, err %v", out, err)
	}
	st := c.Stats()
	if st.Compile.Misses != 1 || st.Compile.Hits != 1 {
		t.Fatalf("compile tier stats = %+v", st.Compile)
	}
	if st.Skeleton.Misses != 1 || st.Skeleton.Hits != 0 {
		t.Fatalf("skeleton tier stats = %+v: only a compile-tier miss consults it", st.Skeleton)
	}
	if st.Place.Misses != 2 || st.Place.Hits != 1 {
		t.Fatalf("place tier stats = %+v", st.Place)
	}
}

// TestPlaceTierChargesLowering: the place tier charges a placement what
// it holds. Placed and estimated, that is its Result; its first run lowers
// it and raises the tier's bytes by exactly the Program's count, and a
// second run, or a placement made outside the cache, changes nothing.
func TestPlaceTierChargesLowering(t *testing.T) {
	c := gcao.NewCache(gcao.CacheOptions{})
	comp, _, err := c.Compile(benchSource(t), gcao.Config{Params: map[string]int{"n": 12, "steps": 2}, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := c.Place(comp, gcao.Combine, nil)
	if err != nil {
		t.Fatal(err)
	}
	placed := c.Stats().Place.Bytes
	if placed != p.Bytes() {
		t.Fatalf("the place tier charges %d B for a placement that holds %d B", placed, p.Bytes())
	}
	if _, err := p.Estimate(gcao.SP2()); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Place.Bytes; got != placed {
		t.Fatalf("an estimate moved the place tier from %d B to %d B", placed, got)
	}
	run := func() {
		r, err := p.Simulate(gcao.SP2(), nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	run()
	lowered := c.Stats().Place.Bytes
	if prog := p.Program().Bytes(); lowered-placed != prog || prog <= 0 {
		t.Fatalf("the first run raised the place tier by %d B; its Program holds %d B", lowered-placed, prog)
	}
	run()
	other, err := comp.Place(gcao.Combine, nil)
	if err != nil {
		t.Fatal(err)
	}
	other.Program()
	if st := c.Stats().Place; st.Bytes != lowered || st.Entries != 1 {
		t.Fatalf("a second run and an uncached placement left the place tier at %+v, want %d B in one entry", st, lowered)
	}
}

// TestCacheParamsCanonical: the same binding in any map order is one
// entry; a different binding or processor count is another.
func TestCacheParamsCanonical(t *testing.T) {
	c := gcao.NewCache(gcao.CacheOptions{})
	src := benchSource(t)
	_, out, err := c.Compile(src, gcao.Config{Params: map[string]int{"n": 12, "steps": 2}, Procs: 4})
	if err != nil || out.Compile != gcao.CacheMiss {
		t.Fatalf("first: %v, %v", out, err)
	}
	_, out, err = c.Compile(src, gcao.Config{Params: map[string]int{"steps": 2, "n": 12}, Procs: 4})
	if err != nil || out.Compile != gcao.CacheHit {
		t.Fatalf("reordered params: %v, %v", out, err)
	}
	_, out, err = c.Compile(src, gcao.Config{Params: map[string]int{"n": 16, "steps": 2}, Procs: 4})
	if err != nil || out.Compile != gcao.CacheMiss || out.Skeleton != gcao.CacheHit {
		t.Fatalf("different n: %v, %v", out, err)
	}
	_, out, err = c.Compile(src, gcao.Config{Params: map[string]int{"n": 12, "steps": 2}, Procs: 16})
	if err != nil || out.Compile != gcao.CacheMiss || out.Skeleton != gcao.CacheHit {
		t.Fatalf("different procs: %v, %v", out, err)
	}
}

// TestCacheCompileProgramDistinctMains: the multi-procedure path keys
// on the entry routine, so distinct mains of one program text never
// collide, while a repeat of the same main hits.
func TestCacheCompileProgramDistinctMains(t *testing.T) {
	c := gcao.NewCache(gcao.CacheOptions{})
	cfgIter := gcao.Config{Params: map[string]int{"n": 12, "steps": 2}, Procs: 4}
	cfgOnce := gcao.Config{Params: map[string]int{"n": 12}, Procs: 4}

	compIter, out, err := c.CompileProgram(twoMainSrc, "iterate", cfgIter)
	if err != nil || out.Compile != gcao.CacheMiss {
		t.Fatalf("iterate: outcome %v, err %v", out, err)
	}
	compOnce, out, err := c.CompileProgram(twoMainSrc, "once", cfgOnce)
	if err != nil || out.Compile != gcao.CacheMiss || out.Skeleton != gcao.CacheMiss {
		t.Fatalf("once compiled as %v (fingerprint collision with iterate?), err %v", out, err)
	}
	if compIter == compOnce {
		t.Fatal("distinct mains returned the same compilation")
	}
	// iterate inlines relaxstep inside a timestep loop plus an update
	// sweep; once is a single inlined call — the flattened programs
	// must differ even though both reach the same helper.
	ni, no := len(compIter.Analysis.G.Stmts), len(compOnce.Analysis.G.Stmts)
	if ni <= no {
		t.Fatalf("flattened programs do not differ: iterate %d stmts, once %d", ni, no)
	}
	if _, out, _ = c.CompileProgram(twoMainSrc, "iterate", cfgIter); out.Compile != gcao.CacheHit {
		t.Fatalf("repeat iterate: outcome %v", out)
	}
	st := c.Stats()
	if st.Compile.Misses != 2 || st.Compile.Hits != 1 {
		t.Fatalf("compile tier stats = %+v", st.Compile)
	}
	// Both placements work on the shared analyses.
	for _, comp := range []*gcao.Compilation{compIter, compOnce} {
		p, _, err := c.Place(comp, gcao.Combine, nil)
		if err != nil || p.Messages() <= 0 {
			t.Fatalf("place: %v, %v", p, err)
		}
	}
}

// TestCacheConcurrentSingleflight hammers one cache with concurrent
// identical and distinct requests; run with -race. The singleflight
// counters prove each distinct request compiled exactly once.
func TestCacheConcurrentSingleflight(t *testing.T) {
	c := gcao.NewCache(gcao.CacheOptions{})
	const (
		goroutines = 12
		iters      = 6
	)
	// Three distinct requests: two problem sizes and a distinct procs.
	cfgs := []gcao.Config{
		{Params: map[string]int{"n": 10, "steps": 1}, Procs: 4},
		{Params: map[string]int{"n": 12, "steps": 1}, Procs: 4},
		{Params: map[string]int{"n": 10, "steps": 1}, Procs: 16},
	}
	src := benchSource(t)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-gate
			for i := 0; i < iters; i++ {
				cfg := cfgs[(g+i)%len(cfgs)]
				comp, _, err := c.Compile(src, cfg)
				if err != nil {
					t.Errorf("compile: %v", err)
					return
				}
				p, _, err := c.Place(comp, gcao.Combine, nil)
				if err != nil || p.Messages() <= 0 {
					t.Errorf("place: %v, %v", p, err)
					return
				}
				if _, err := p.Estimate(gcao.SP2()); err != nil {
					t.Errorf("estimate: %v", err)
					return
				}
			}
		}(g)
	}
	close(gate)
	wg.Wait()
	st := c.Stats()
	if st.Compile.Misses != int64(len(cfgs)) {
		t.Fatalf("compile misses = %d, want exactly %d (one per distinct request)",
			st.Compile.Misses, len(cfgs))
	}
	if st.Place.Misses != int64(len(cfgs)) {
		t.Fatalf("place misses = %d, want exactly %d", st.Place.Misses, len(cfgs))
	}
	total := st.Compile.Hits + st.Compile.Misses + st.Compile.InflightWaits
	if total != goroutines*iters {
		t.Fatalf("compile lookups = %d, want %d", total, goroutines*iters)
	}
}

// benchSource returns the shallow-water Fig. 10 program, the paper
// benchmark the warm-vs-cold measurements repeat.
func benchSource(t testing.TB) string {
	t.Helper()
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		t.Fatal(err)
	}
	return pr.Source
}

// TestWarmCacheSpeedup is the acceptance measurement: a warm-cache
// compile+place of a repeated Fig. 10 program must be at least 5x
// faster than the cold path. The margin in practice is orders of
// magnitude (a full pipeline run vs one map lookup), so 5x
// with the best-of-N discipline is robust to scheduler noise.
func TestWarmCacheSpeedup(t *testing.T) {
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		t.Fatal(err)
	}
	cfg := gcao.Config{Params: pr.Params(64), Procs: 4}

	cold := func() time.Duration {
		t0 := time.Now()
		comp, err := gcao.Compile(pr.Source, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := comp.Place(gcao.Combine, nil); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	c := gcao.NewCache(gcao.CacheOptions{})
	warm := func() time.Duration {
		t0 := time.Now()
		comp, out, err := c.Compile(pr.Source, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out.Compile == gcao.CacheMiss {
			return -1 // priming run, not a warm measurement
		}
		if _, _, err := c.Place(comp, gcao.Combine, nil); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	warm() // prime both tiers

	const rounds = 5
	best := func(f func() time.Duration) time.Duration {
		b := time.Duration(1<<63 - 1)
		for i := 0; i < rounds; i++ {
			if d := f(); d >= 0 && d < b {
				b = d
			}
		}
		return b
	}
	// Retry the whole measurement a few times before declaring failure,
	// so a single GC pause or noisy neighbor cannot flake the suite.
	var coldBest, warmBest time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		coldBest, warmBest = best(cold), best(warm)
		if coldBest >= 5*warmBest {
			t.Logf("cold %v vs warm %v (%.0fx)", coldBest, warmBest,
				float64(coldBest)/float64(warmBest))
			return
		}
	}
	t.Fatalf("warm cache not >=5x faster: cold %v, warm %v (%.1fx)",
		coldBest, warmBest, float64(coldBest)/float64(warmBest))
}

// Benchmarks for the record: the cold pipeline vs the warm cache on
// the same Fig. 10 program.
func BenchmarkCompileShallowCold(b *testing.B) {
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		b.Fatal(err)
	}
	cfg := gcao.Config{Params: pr.Params(64), Procs: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		comp, err := gcao.Compile(pr.Source, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := comp.Place(gcao.Combine, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileShallowKnownSource is the cold pipeline on a source the
// cache has compiled at another size: every iteration a never-seen n, so
// the compile tier misses and the skeleton tier hits.
func BenchmarkCompileShallowKnownSource(b *testing.B) {
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		b.Fatal(err)
	}
	c := gcao.NewCache(gcao.CacheOptions{})
	if _, _, err := c.Compile(pr.Source, gcao.Config{Params: pr.Params(64), Procs: 4}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp, out, err := c.Compile(pr.Source, gcao.Config{Params: pr.Params(65 + i), Procs: 4})
		if err != nil || out.Compile != gcao.CacheMiss || out.Skeleton != gcao.CacheHit {
			b.Fatalf("outcome %v, err %v", out, err)
		}
		if _, _, err := c.Place(comp, gcao.Combine, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileShallowWarm(b *testing.B) {
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		b.Fatal(err)
	}
	cfg := gcao.Config{Params: pr.Params(64), Procs: 4}
	c := gcao.NewCache(gcao.CacheOptions{})
	if _, _, err := c.Compile(pr.Source, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp, out, err := c.Compile(pr.Source, cfg)
		if err != nil || out.Compile != gcao.CacheHit {
			b.Fatalf("outcome %v, err %v", out, err)
		}
		if _, _, err := c.Place(comp, gcao.Combine, nil); err != nil {
			b.Fatal(err)
		}
	}
}
