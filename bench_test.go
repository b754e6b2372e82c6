// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation (§3 Fig. 5, §5 Fig. 10a–f), plus ablations of the
// design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Each Fig. 10 benchmark measures the full compile-and-place pipeline
// for the three compiler versions and reports the resulting message
// counts and estimated times as benchmark metrics, so `go test -bench`
// regenerates the paper's numbers alongside wall-clock compile cost.
package gcao_test

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"gcao"
	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/core/bound"
	"gcao/internal/machine"
	"gcao/internal/native"
	"gcao/internal/parser"
	"gcao/internal/plan"
	"gcao/internal/sem"
	"gcao/internal/spmd"
)

// BenchmarkFig5Curves evaluates the three §3 profiling curves across
// the log-spaced sizes of Fig. 5 on both machine models.
func BenchmarkFig5Curves(b *testing.B) {
	b.ReportAllocs()
	for _, m := range []machine.Machine{machine.SP2(), machine.NOW()} {
		b.Run(m.Name, func(b *testing.B) {
			b.ReportAllocs()
			sink := 0.0
			for i := 0; i < b.N; i++ {
				for bytes := 16; bytes <= 1<<20; bytes *= 2 {
					sink += m.BcopyBandwidth(bytes) + m.InjectBandwidth(bytes) + m.NetworkBandwidth(bytes)
				}
			}
			_ = sink
			b.ReportMetric(float64(m.HalfPowerPoint()), "halfpower-bytes")
		})
	}
}

// benchFig10a compiles and places one benchmark routine under all
// three versions, reporting the static message counts as metrics.
func benchFig10a(b *testing.B, benchName, routine string) {
	pr, err := bench.ByName(benchName, routine)
	if err != nil {
		b.Fatal(err)
	}
	var counts [3]int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := pr.Compile(pr.DefaultN, 25)
		if err != nil {
			b.Fatal(err)
		}
		for vi, v := range []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine} {
			res, err := a.Place(core.Options{Version: v})
			if err != nil {
				b.Fatal(err)
			}
			counts[vi] = res.TotalMessages()
		}
	}
	b.ReportMetric(float64(counts[0]), "orig-msgs")
	b.ReportMetric(float64(counts[1]), "nored-msgs")
	b.ReportMetric(float64(counts[2]), "comb-msgs")
}

func BenchmarkFig10aShallow(b *testing.B)        { benchFig10a(b, "shallow", "main") }
func BenchmarkFig10aGravity(b *testing.B)        { benchFig10a(b, "gravity", "main") }
func BenchmarkFig10aTrimeshNormdot(b *testing.B) { benchFig10a(b, "trimesh", "normdot") }
func BenchmarkFig10aTrimeshGauss(b *testing.B)   { benchFig10a(b, "trimesh", "gauss") }
func BenchmarkFig10aHydfloFlux(b *testing.B)     { benchFig10a(b, "hydflo", "flux") }
func BenchmarkFig10aHydfloHydro(b *testing.B)    { benchFig10a(b, "hydflo", "hydro") }

// benchChart regenerates one Fig. 10(b–f) chart per iteration and
// reports the mid-size normalized comb total and comb/orig network
// ratio.
func benchChart(b *testing.B, id string) {
	var spec bench.Chart
	found := false
	for _, s := range bench.ChartSpecs() {
		if s.ID == id {
			spec, found = s, true
		}
	}
	if !found {
		b.Fatalf("no chart %q", id)
	}
	var c bench.Chart
	var err error
	for i := 0; i < b.N; i++ {
		c, err = bench.RunChart(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	mid := len(c.Points) / 2
	combBar := c.Points[mid].Bars[2]
	b.ReportMetric(combBar.CPU+combBar.Net, "comb-norm-total")
	b.ReportMetric(c.CommRatio[mid], "comb/orig-net")
}

func BenchmarkFig10bSP2Shallow(b *testing.B) { benchChart(b, "b") }
func BenchmarkFig10cSP2Gravity(b *testing.B) { benchChart(b, "c") }
func BenchmarkFig10dNOWShallow(b *testing.B) { benchChart(b, "d") }
func BenchmarkFig10eNOWGravity(b *testing.B) { benchChart(b, "e") }
func BenchmarkFig10fNOWTrimesh(b *testing.B) { benchChart(b, "f") }

// BenchmarkFunctionalSimulation runs the verified functional simulator
// on the shallow benchmark — the end-to-end cost of executing a placed
// program with validity tracking.
func BenchmarkFunctionalSimulation(b *testing.B) {
	b.ReportAllocs()
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		b.Fatal(err)
	}
	a, err := pr.Compile(16, 4)
	if err != nil {
		b.Fatal(err)
	}
	res, err := a.Place(core.Options{Version: core.VersionCombine})
	if err != nil {
		b.Fatal(err)
	}
	m := machine.SP2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spmd.RunParallel(res, m, 4, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5)

// BenchmarkThresholdAblation sweeps the combining threshold on the
// hydflo flux routine, whose large strips make the threshold bite: a
// tiny threshold forbids combining, the paper's 20 KB recovers it.
func BenchmarkThresholdAblation(b *testing.B) {
	b.ReportAllocs()
	pr, err := bench.ByName("hydflo", "flux")
	if err != nil {
		b.Fatal(err)
	}
	// n=44 puts the seven-array strips just past 20 KB combined, so the
	// paper's 20 KB threshold splits the direction groups while a
	// loose threshold recovers full combining.
	const n = 44
	for _, kb := range []int{1, 4, 20, 1024} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			b.ReportAllocs()
			var msgs int
			for i := 0; i < b.N; i++ {
				a, err := pr.Compile(n, 25)
				if err != nil {
					b.Fatal(err)
				}
				res, err := a.Place(core.Options{Version: core.VersionCombine, CombineThresholdBytes: kb << 10})
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.TotalMessages()
			}
			b.ReportMetric(float64(msgs), "comb-msgs")
		})
	}
}

// BenchmarkGreedyOrderAblation compares the most-constrained-first
// greedy order of Fig. 9(g) against naive program order.
func BenchmarkGreedyOrderAblation(b *testing.B) {
	b.ReportAllocs()
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		b.Fatal(err)
	}
	for _, naive := range []bool{false, true} {
		name := "constrained-first"
		if naive {
			name = "program-order"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var msgs int
			for i := 0; i < b.N; i++ {
				a, err := pr.Compile(pr.DefaultN, 25)
				if err != nil {
					b.Fatal(err)
				}
				res, err := a.Place(core.Options{Version: core.VersionCombine, NaiveGreedyOrder: naive})
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.TotalMessages()
			}
			b.ReportMetric(float64(msgs), "comb-msgs")
		})
	}
}

// BenchmarkSubsetElimAblation measures §4.5 on and off across the
// whole suite (message totals; §6 predicts dropping it can only hurt).
func BenchmarkSubsetElimAblation(b *testing.B) {
	b.ReportAllocs()
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var total int
			for i := 0; i < b.N; i++ {
				total = 0
				for _, pr := range bench.Programs() {
					a, err := pr.Compile(pr.DefaultN, 25)
					if err != nil {
						b.Fatal(err)
					}
					res, err := a.Place(core.Options{Version: core.VersionCombine, DisableSubsetElim: disable})
					if err != nil {
						b.Fatal(err)
					}
					total += res.TotalMessages()
				}
			}
			b.ReportMetric(float64(total), "total-comb-msgs")
		})
	}
}

// optimalKernel is small enough for the exhaustive §6.1 search: two
// fields with two-direction stencils updated across a timestep loop.
const optimalKernel = `
routine opt(n, steps)
real a(n, n), b(n, n), ra(n, n), rb(n, n)
!hpf$ distribute (block, block) :: a, b, ra, rb
do i = 1, n
do j = 1, n
a(i, j) = i
b(i, j) = j
ra(i, j) = 0
rb(i, j) = 0
enddo
enddo
do it = 1, steps
do i = 2, n - 1
do j = 2, n - 1
ra(i, j) = a(i - 1, j) + a(i + 1, j)
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
rb(i, j) = b(i - 1, j) + b(i + 1, j)
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
a(i, j) = a(i, j) + 0.1 * ra(i, j)
b(i, j) = b(i, j) + 0.1 * rb(i, j)
enddo
enddo
enddo
end
`

// BenchmarkOptimalAblation runs the exhaustive optimal placement on a
// small kernel and reports greedy vs optimal dynamic message counts
// (Claim 6.1 motivates the heuristic; here it matches the optimum).
func BenchmarkOptimalAblation(b *testing.B) {
	b.ReportAllocs()
	c, err := gcao.Compile(optimalKernel, gcao.Config{Params: map[string]int{"n": 16, "steps": 4}, Procs: 4})
	if err != nil {
		b.Fatal(err)
	}
	a := c.Analysis
	var gd, od float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		greedy, err := a.Place(core.Options{Version: core.VersionCombine})
		if err != nil {
			b.Fatal(err)
		}
		optimal, err := a.PlaceOptimal(core.Options{Version: core.VersionCombine}, 2_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if gd, err = a.DynamicMessages(greedy); err != nil {
			b.Fatal(err)
		}
		if od, err = a.DynamicMessages(optimal); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(gd, "greedy-dyn-msgs")
	b.ReportMetric(od, "optimal-dyn-msgs")
}

// BenchmarkCompile measures the raw analysis pipeline cost on the
// largest benchmark source.
func BenchmarkCompile(b *testing.B) {
	b.ReportAllocs()
	pr, err := bench.ByName("hydflo", "flux")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := pr.Compile(64, 25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileSuite is the repository benchmark's compile-suite op
// under `go test`: the six Fig. 10(a) routines at their default sizes on
// 25 processors, each parsed, checked, analysed, placed under the three
// versions, estimated on the SP2 model and bounded from below — the
// compiler user's cold path with no cache and no execution layer. It
// allocates 940 objects an op since the analysis layers (sem's
// distributions, the CFG, the dominance frontier, SSA, the class memo,
// a Result's tables and the bound) take their tables from one slab per
// element type sized by counts, 1,288 before.
func BenchmarkCompileSuite(b *testing.B) {
	progs := bench.Programs()
	sp2 := machine.SP2()
	versions := []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine}
	b.ReportAllocs()
	var msgs int
	var floor float64
	for i := 0; i < b.N; i++ {
		msgs, floor = 0, 0
		for _, pr := range progs {
			a, err := pr.Compile(pr.DefaultN, 25)
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range versions {
				res, err := a.Place(core.Options{Version: v})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := spmd.Estimate(res, sp2); err != nil {
					b.Fatal(err)
				}
				if v == core.VersionCombine {
					msgs += res.TotalMessages()
				}
			}
			floor += bound.Compute(a).TotalBytes
		}
	}
	b.ReportMetric(float64(msgs), "comb-msgs")
	b.ReportMetric(floor, "bound-bytes")
}

// hydfloFluxUnit parses and checks hydflo/flux — the routine that
// dominates the Fig. 10(a) suite's compile time — at its default size
// on 25 processors.
func hydfloFluxUnit(b *testing.B) *sem.Unit {
	pr, err := bench.ByName("hydflo", "flux")
	if err != nil {
		b.Fatal(err)
	}
	u, err := pr.Unit(pr.DefaultN, 25)
	if err != nil {
		b.Fatal(err)
	}
	return u
}

// BenchmarkAnalysis measures core.NewAnalysis alone — scalarize through
// Earliest/Latest plus the per-level section tables — on hydflo/flux.
func BenchmarkAnalysis(b *testing.B) {
	u := hydfloFluxUnit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewAnalysis(u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalysisScale measures (*core.Skeleton).Analyze on
// bench.StencilNests' routine of k nests (n = 64, P = 16), its skeleton
// built once per k: how the analysis grows with the routine. Time is
// measured here, not asserted; core's TestAnalysisScales holds the number
// of Directions evaluations per doubling.
func BenchmarkAnalysisScale(b *testing.B) {
	for _, k := range []int{400, 800, 1600, 3200} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			r, err := parser.ParseRoutine(bench.StencilNests(k, 1))
			if err != nil {
				b.Fatal(err)
			}
			u, err := sem.Analyze(r, map[string]int{"n": 64, "steps": 2}, sem.Options{Procs: 16})
			if err != nil {
				b.Fatal(err)
			}
			sk, err := core.NewSkeleton(u, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sk.Analyze(u, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlace measures one placement per version over a prebuilt
// hydflo/flux analysis: the layer the section tables exist for.
func BenchmarkPlace(b *testing.B) {
	a, err := core.NewAnalysis(hydfloFluxUnit(b))
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine} {
		b.Run(v.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := a.Place(core.Options{Version: v}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSimulation measures the sharded functional
// simulator against its own sequential path on the paper's hot point:
// gravity, procs=25, n=250 (Fig. 10(c)'s upper sizes). The sequential
// sub-benchmark is the baseline; the parallel one runs the same
// placement with one shard per available core. Results are
// bit-identical either way, so this measures pure wall-clock. Short
// mode shrinks the problem so CI stays fast.
func BenchmarkParallelSimulation(b *testing.B) {
	n := 250
	if testing.Short() {
		n = 48
	}
	pr, err := bench.ByName("gravity", "main")
	if err != nil {
		b.Fatal(err)
	}
	a, err := pr.Compile(n, 25)
	if err != nil {
		b.Fatal(err)
	}
	res, err := a.Place(core.Options{Version: core.VersionCombine})
	if err != nil {
		b.Fatal(err)
	}
	m := machine.SP2()
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := spmd.RunParallel(res, m, 25, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	workers := goruntime.GOMAXPROCS(0)
	if workers > 25 {
		workers = 25
	}
	b.Run(fmt.Sprintf("parallel-j%d", workers), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := spmd.RunParallel(res, m, 25, workers); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimVerify is the repository benchmark's sim-verify op under
// `go test`: one sharded simulator run of hydflo/flux (n=16, 4 steps,
// P=16, comb), memory image and lowered program rebuilt per run as the
// API does — at one shard per core and on a single shard. Large
// combined strips make the per-receiver strip delivery and the ledger
// what this measures. ci/sim-alloc-budget.txt holds the allocs/op
// ceiling `make sim-smoke` enforces on the single-shard run (the count
// does not depend on the host there): bulk memory operations that start
// allocating per call again show up as thousands of allocations long
// before they show in milliseconds. A run allocates 82 objects on one
// shard and 90 on two (2 vCPUs), from 143 and 156 while lowering's stacks
// grew by doubling and the engine made a table per shard and a slice per
// rendezvous scratch.
func BenchmarkSimVerify(b *testing.B) {
	res := placeComb(b, "hydflo", "flux", map[string]int{"n": 16, "steps": 4}, 16)
	m := machine.SP2()
	for _, run := range []struct {
		name    string
		workers int
	}{{"jmax", goruntime.GOMAXPROCS(0)}, {"j1", 1}} {
		b.Run(run.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := spmd.RunParallel(res, m, 16, run.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdRun is a cold engine and one run an op on sim-verify's
// configuration (hydflo/flux n=16, 4 steps, P=16, comb), each backend
// lowering for itself: native.NewEngine and Run against spmd.RunParallel
// on one shard. ROADMAP item 21 asks the native op to allocate no more
// than the simulator's: 536 objects against 82 (589 against 144 before
// lowering sized its stacks from counts and the simulator's engine carved
// its tables), a native fabric's channels being most of the difference.
// ci/cold-alloc-budget.txt holds the native op's ceiling.
func BenchmarkColdRun(b *testing.B) {
	res := placeComb(b, "hydflo", "flux", map[string]int{"n": 16, "steps": 4}, 16)
	b.Run("native", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng, err := native.NewEngine(res, 16)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("simulate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := spmd.RunParallel(res, machine.SP2(), 16, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// placeComb compiles one benchmark routine under the given parameter
// binding — the repository benchmark's workloads use bindings the
// Program's own Params(n) does not produce — and places it under comb.
func placeComb(b *testing.B, benchName, routine string, params map[string]int, procs int) *core.Result {
	b.Helper()
	pr, err := bench.ByName(benchName, routine)
	if err != nil {
		b.Fatal(err)
	}
	r, err := parser.ParseRoutine(pr.Source)
	if err != nil {
		b.Fatal(err)
	}
	u, err := sem.Analyze(r, params, sem.Options{Procs: procs})
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.NewAnalysis(u)
	if err != nil {
		b.Fatal(err)
	}
	res, err := a.Place(core.Options{Version: core.VersionCombine})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// warmEngine prepares a native engine for one benchmark's main routine
// under comb and runs it once, so the timed loop sees grown message
// buffers and sized scratch, with setup (memory image, plan, lowering,
// fabric) excluded.
func warmEngine(b *testing.B, benchName string, params map[string]int, procs int) *native.Engine {
	b.Helper()
	eng, err := native.NewEngine(placeComb(b, benchName, "main", params, procs), procs)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	return eng
}

// warmGravityEngine is the native hot point most native benchmarks
// below measure: gravity n³, one step.
func warmGravityEngine(b *testing.B, n, procs int) *native.Engine {
	b.Helper()
	return warmEngine(b, "gravity", map[string]int{"nx": n, "ny": n, "nz": n, "steps": 1}, procs)
}

// BenchmarkNativeExecution measures the native goroutine backend on
// the same hot point BenchmarkParallelSimulation uses — gravity,
// procs=25, n=250 (short: 48) — one goroutine per logical processor
// with placed communication realized as channel transfers, in steady
// state. Compare against BenchmarkParallelSimulation's sub-benchmarks
// to see real execution against modeled simulation on identical
// placements.
func BenchmarkNativeExecution(b *testing.B) {
	n := 250
	if testing.Short() {
		n = 48
	}
	eng := warmGravityEngine(b, n, 25)
	b.ReportAllocs()
	b.ResetTimer()
	var msgs, wire int64
	for i := 0; i < b.N; i++ {
		out, err := eng.Run()
		if err != nil {
			b.Fatal(err)
		}
		msgs = out.Stats.Messages
		wire = out.Stats.WireBytes
	}
	b.ReportMetric(float64(msgs), "messages")
	b.ReportMetric(float64(wire), "wirebytes")
}

// BenchmarkNativeAlloc is the allocation budget the native-smoke CI
// target gates on: gravity at P=16 (short-friendly n=48), steady-state
// engine reuse. The recycled fabric and hoisted scratch are the point,
// so allocs/op here regressing means a hot path started allocating
// again; ci/native-alloc-budget.txt holds the ceiling `make
// native-smoke` enforces with -benchmem.
func BenchmarkNativeAlloc(b *testing.B) {
	eng := warmGravityEngine(b, 48, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNativeComm is the repository benchmark's native-comm op
// under `go test`: shallow n=16, 40 steps, P=16 under comb on a warm
// engine — blocks of 4 × 4 and 3,840 messages, so the fabric, the
// exchange geometry and the nest entries set the time, not the kernels.
// `make native-smoke` holds its allocs/op to the same
// ci/native-alloc-budget.txt as BenchmarkNativeAlloc.
func BenchmarkNativeComm(b *testing.B) {
	eng := warmEngine(b, "shallow", map[string]int{"n": 16, "steps": 40}, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNativeScaling holds the problem fixed (gravity n=48) and
// varies the processor count. Owner-computes localization makes the
// compute work independent of P, so what grows with P is the message
// count alone: ns/op flat or falling in P on a host with cores to
// spare, and at most gently rising on a small one (EXPERIMENTS.md
// records P=25 against P=4).
func BenchmarkNativeScaling(b *testing.B) {
	for _, procs := range []int{4, 16, 25} {
		b.Run(fmt.Sprintf("P%d", procs), func(b *testing.B) {
			eng := warmGravityEngine(b, 48, procs)
			b.ReportAllocs()
			b.ResetTimer()
			var msgs int64
			for i := 0; i < b.N; i++ {
				out, err := eng.Run()
				if err != nil {
					b.Fatal(err)
				}
				msgs = out.Stats.Messages
			}
			b.ReportMetric(float64(msgs), "messages")
		})
	}
}

// BenchmarkLower measures plan.Lower alone — the array layout, the
// placement's index and the slot-resolved form with its row ops, purity
// analysis, per-processor bounds and row-loop marking; no memory image —
// on the six Fig. 10(a) routines at P=25. A gcao.Placed pays for it once,
// whatever it runs on; native.NewEngine and spmd.RunParallel on a bare
// placement result lower for themselves (so RunParallel pays per run),
// which is why what lowering allocates is budgeted in
// ci/sim-alloc-budget.txt. Every value and list a Program keeps is carved
// from a slab sized by the CFG's, the SSA form's and the placement's
// counts, and every stack of the lowerer is sized once from them: 336
// allocations and 608 KB an op, from 604 and 625 KB while the stacks grew
// by doubling and names were looked up in maps, 976 and 628 KB before the
// layout and the tree were carved, 1,358 and 665 KB while node lists grew
// by append and each new slab doubled the last.
func BenchmarkLower(b *testing.B) {
	var placed []*core.Result
	for _, pr := range bench.Programs() {
		a, err := pr.Compile(pr.DefaultN, 25)
		if err != nil {
			b.Fatal(err)
		}
		res, err := a.Place(core.Options{Version: core.VersionCombine})
		if err != nil {
			b.Fatal(err)
		}
		placed = append(placed, res)
	}
	b.ReportAllocs()
	b.ResetTimer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		for _, res := range placed {
			nodes += len(plan.Lower(res).Body)
		}
	}
	if nodes == 0 {
		b.Fatal("lowering produced no nodes")
	}
}
