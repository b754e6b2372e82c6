package bench

import (
	"strconv"
	"testing"

	"gcao/internal/core"
	"gcao/internal/core/bound"
	"gcao/internal/machine"
	"gcao/internal/parser"
	"gcao/internal/sem"
	"gcao/internal/spmd"
)

var soundnessVersions = []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine}

// checkBoundSoundness places an analysis under every version and
// asserts the lower bound never exceeds the estimated traffic nor the
// simulated ledger traffic (when simulate is true).
func checkBoundSoundness(t *testing.T, label string, a *core.Analysis, m machine.Machine, simulate bool) {
	t.Helper()
	b := bound.Compute(a)
	if b.TotalBytes < 0 {
		t.Fatalf("%s: negative bound %v", label, b.TotalBytes)
	}
	for _, v := range soundnessVersions {
		res, err := a.Place(core.Options{Version: v})
		if err != nil {
			t.Fatalf("%s %v: place: %v", label, v, err)
		}
		cost, err := spmd.Estimate(res, m)
		if err != nil {
			t.Fatalf("%s %v: estimate: %v", label, v, err)
		}
		if b.TotalBytes > cost.Bytes {
			t.Errorf("%s %v: bound %.0f exceeds estimated bytes %.0f\nterms: %v",
				label, v, b.TotalBytes, cost.Bytes, b.Terms)
		}
		if !simulate {
			continue
		}
		run, err := spmd.RunParallel(res, m, a.Unit.Grid.NumProcs(), 0)
		if err != nil {
			t.Fatalf("%s %v: run: %v", label, v, err)
		}
		if b.TotalBytes > float64(run.Ledger.BytesMoved) {
			t.Errorf("%s %v: bound %.0f exceeds simulated ledger bytes %d\nterms: %v",
				label, v, b.TotalBytes, run.Ledger.BytesMoved, b.Terms)
		}
	}
}

// TestBoundSoundFig10Estimates sweeps every Fig. 10 chart spec at its
// full problem sizes: for every benchmark × size × version the bound
// must not exceed the analytic byte estimate.
func TestBoundSoundFig10Estimates(t *testing.T) {
	for _, spec := range ChartSpecs() {
		m, err := machine.ByName(spec.Machine)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := ByName(spec.Bench, spec.Routines[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range spec.Sizes {
			a, err := pr.Compile(n, spec.Procs)
			if err != nil {
				t.Fatal(err)
			}
			label := spec.ID + "/" + spec.Bench + "/n=" + strconv.Itoa(n)
			checkBoundSoundness(t, label, a, m, false)
		}
	}
}

// TestBoundSoundFig10Simulated runs every benchmark at a small size on
// the functional simulator: the bound must not exceed the bytes the
// ledger actually moved, under any compiler version.
func TestBoundSoundFig10Simulated(t *testing.T) {
	m := machine.SP2()
	for _, pr := range Programs() {
		n := 6
		if pr.Bench == "shallow" || pr.Bench == "trimesh" {
			n = 8
		}
		a, err := pr.Compile(n, 4)
		if err != nil {
			t.Fatal(err)
		}
		checkBoundSoundness(t, pr.Bench+"/"+pr.Routine, a, m, true)
	}
}

// TestBoundSoundRandomCorpus fuzzes the bound: for random programs the
// floor must stay below both the estimate and the simulated ledger of
// all three versions.
func TestBoundSoundRandomCorpus(t *testing.T) {
	maxSeed := int64(25)
	if testing.Short() {
		maxSeed = 5
	}
	m := machine.SP2()
	gen := &progGen{}
	for seed := int64(1); seed <= maxSeed; seed++ {
		src := gen.generate(seed)
		r, err := parser.ParseRoutine(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		u, err := sem.Analyze(r, map[string]int{"n": 8, "steps": 2}, sem.Options{Procs: 4})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a, err := core.NewAnalysis(u)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkBoundSoundness(t, "fuzz/seed="+strconv.FormatInt(seed, 10), a, m, true)
	}
}

// TestBoundZeroOnOneProcessor asserts the degenerate case: a single
// processor never communicates, so the bound is exactly zero.
func TestBoundZeroOnOneProcessor(t *testing.T) {
	pr, err := ByName("shallow", "main")
	if err != nil {
		t.Fatal(err)
	}
	a, err := pr.Compile(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b := bound.Compute(a); b.TotalBytes != 0 {
		t.Fatalf("single-processor bound = %v, want 0", b.TotalBytes)
	}
}

// TestBoundPositiveOnBenchmarks asserts the bound is not vacuous: each
// paper benchmark at paper scale has a strictly positive floor, so the
// gap dashboard has a denominator to report.
func TestBoundPositiveOnBenchmarks(t *testing.T) {
	for _, pr := range Programs() {
		a, err := pr.Compile(pr.DefaultN, pr.Procs["SP2"])
		if err != nil {
			t.Fatal(err)
		}
		b := bound.Compute(a)
		if b.TotalBytes <= 0 {
			t.Errorf("%s/%s: bound %v, want > 0", pr.Bench, pr.Routine, b.TotalBytes)
		}
	}
}
