package spmd

import (
	"math"
	"slices"
	"testing"

	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/parser"
	"gcao/internal/plan"
	"gcao/internal/runtime"
	"gcao/internal/sem"
)

func compile(t *testing.T, src string, params map[string]int, procs int) *core.Analysis {
	t.Helper()
	r, err := parser.ParseRoutine(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u, err := sem.Analyze(r, params, sem.Options{Procs: procs})
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	a, err := core.NewAnalysis(u)
	if err != nil {
		t.Fatalf("analysis: %v", err)
	}
	return a
}

// readOwner returns an element as its owner holds it, always valid.
// elapsed is a ledger's bulk-synchronous completion time: the largest
// per-processor clock.
func elapsed(l *runtime.Ledger) float64 {
	t := 0.0
	for p := range l.CPU {
		t = max(t, l.CPU[p]+l.Net[p])
	}
	return t
}

// readOwner reads an element from its owner's plane.
func readOwner(m *runtime.Memory, name string, idx ...int) float64 {
	am := m.View(name)
	return am.Data[am.Owner(idx)][am.Offset(idx)]
}

func placed(t *testing.T, a *core.Analysis, v core.Version) *core.Result {
	t.Helper()
	res, err := a.Place(core.Options{Version: v})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const stencilSrc = `
routine st(n, steps)
real a(n, n), b(n, n)
!hpf$ distribute (block, block) :: a, b
do i = 1, n
do j = 1, n
a(i, j) = i * 10 + j
b(i, j) = 0
enddo
enddo
do it = 1, steps
do i = 2, n - 1
do j = 2, n - 1
b(i, j) = 0.25 * (a(i - 1, j) + a(i + 1, j) + a(i, j - 1) + a(i, j + 1))
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
a(i, j) = b(i, j)
enddo
enddo
enddo
end
`

func TestRunComputesStencil(t *testing.T) {
	a := compile(t, stencilSrc, map[string]int{"n": 6, "steps": 1}, 4)
	res := placed(t, a, core.VersionCombine)
	run, err := RunParallel(res, machine.SP2(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-check one interior element: b(3,3) after one step equals
	// the average of a's initial neighbours.
	want := 0.25 * float64((2*10+3)+(4*10+3)+(3*10+2)+(3*10+4))
	got := readOwner(run.Mem, "a", 3, 3) // copied into a by the second nest
	if got != want {
		t.Errorf("a[3 3] = %v, want %v", got, want)
	}
	if run.Ledger.DynMessages == 0 {
		t.Error("a 4-processor stencil must communicate")
	}
	if elapsed(run.Ledger) <= 0 {
		t.Error("ledger must accumulate time")
	}
}

func TestRunRejectsWrongProcs(t *testing.T) {
	a := compile(t, stencilSrc, map[string]int{"n": 6, "steps": 1}, 4)
	res := placed(t, a, core.VersionCombine)
	if _, err := RunParallel(res, machine.SP2(), 9, 0); err == nil {
		t.Error("processor-count mismatch must fail")
	}
}

// TestMatchesSequential: a P=4 run ends in the state a P=1 run of the
// same routine does, bit for bit, and a corrupted owner value is caught.
func TestMatchesSequential(t *testing.T) {
	a4 := compile(t, stencilSrc, map[string]int{"n": 6, "steps": 2}, 4)
	a1 := compile(t, stencilSrc, map[string]int{"n": 6, "steps": 2}, 1)
	par, err := RunParallel(placed(t, a4, core.VersionCombine), machine.SP2(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := RunParallel(placed(t, a1, core.VersionCombine), machine.SP2(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := runtime.CompareState(par.Mem, seq.Mem, par.Scalars, seq.Scalars); err != nil {
		t.Fatal(err)
	}
	// Corrupt one owner value; verification must notice.
	a, idx := par.Mem.View("a"), []int{3, 3}
	a.StoreOwner(a.Offset(idx), a.Owner(idx), -999)
	if err := runtime.CompareState(par.Mem, seq.Mem, par.Scalars, seq.Scalars); err == nil {
		t.Error("verification should detect a corrupted element")
	}
}

// TestMissingCommDetected: a placement with communication stripped
// must trigger a stale read, proving the validity tracking works end
// to end.
func TestMissingCommDetected(t *testing.T) {
	a := compile(t, stencilSrc, map[string]int{"n": 6, "steps": 1}, 4)
	res := placed(t, a, core.VersionCombine)
	res.Groups = nil // strip all communication
	if _, err := RunParallel(res, machine.SP2(), 4, 0); err == nil {
		t.Fatal("run without communication must fail with a stale read")
	}
}

func TestEstimateMatchesRunShape(t *testing.T) {
	// The analytic estimator and the functional simulator must agree
	// on the ordering of the three versions' network costs.
	a := compile(t, stencilSrc, map[string]int{"n": 12, "steps": 2}, 4)
	m := machine.SP2()
	var estNet, runNet []float64
	for _, v := range []core.Version{core.VersionOrig, core.VersionCombine} {
		res := placed(t, a, v)
		c, err := Estimate(res, m)
		if err != nil {
			t.Fatal(err)
		}
		run, err := RunParallel(res, m, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		estNet = append(estNet, c.Net)
		runNet = append(runNet, slices.Max(run.Ledger.Net))
	}
	if !(estNet[1] <= estNet[0]) {
		t.Errorf("estimate: comb net %v should not exceed orig %v", estNet[1], estNet[0])
	}
	if !(runNet[1] <= runNet[0]) {
		t.Errorf("functional: comb net %v should not exceed orig %v", runNet[1], runNet[0])
	}
}

func TestEstimateVersionsNormalized(t *testing.T) {
	a := compile(t, stencilSrc, map[string]int{"n": 64, "steps": 4}, 4)
	bars, err := EstimateVersions(a, machine.SP2())
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != 3 {
		t.Fatalf("bars = %d", len(bars))
	}
	if tot := bars[0].CPU + bars[0].Net; math.Abs(tot-1.0) > 1e-9 {
		t.Errorf("orig bar normalized to %v, want 1.0", tot)
	}
	if bars[2].Net > bars[0].Net {
		t.Error("comb network segment must not exceed orig")
	}
	// CPU is identical across versions (same computation).
	if math.Abs(bars[0].CPU-bars[2].CPU) > 1e-12 {
		t.Errorf("CPU segments differ: %v vs %v", bars[0].CPU, bars[2].CPU)
	}
}

const reduceSrc = `
routine rsum(n)
real g(n, n)
real s1, s2
!hpf$ distribute (block, block) :: g
do i = 1, n
do j = 1, n
g(i, j) = 1
enddo
enddo
s1 = sum(g(1, 1:n))
s2 = sum(g(1:n, 1:n))
end
`

func TestReductionValues(t *testing.T) {
	a := compile(t, reduceSrc, map[string]int{"n": 8}, 4)
	res := placed(t, a, core.VersionCombine)
	run, err := RunParallel(res, machine.SP2(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.Scalars["s1"] != 8 {
		t.Errorf("s1 = %v, want 8", run.Scalars["s1"])
	}
	if run.Scalars["s2"] != 64 {
		t.Errorf("s2 = %v, want 64", run.Scalars["s2"])
	}
}

const branchSrc = `
routine br(n)
real a(n), b(n)
real x
!hpf$ distribute (block) :: a, b
do i = 1, n
a(i) = i
enddo
x = 2
if (x > 1) then
do i = 2, n
b(i) = a(i - 1)
enddo
else
do i = 2, n
b(i) = 0
enddo
endif
end
`

func TestBranching(t *testing.T) {
	a := compile(t, branchSrc, map[string]int{"n": 8}, 4)
	res := placed(t, a, core.VersionCombine)
	run, err := RunParallel(res, machine.SP2(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := readOwner(run.Mem, "b", 5); got != 4 {
		t.Errorf("b[5] = %v, want 4 (then-branch taken)", got)
	}
}

const zeroTripSrc = `
routine zt(n)
real a(n)
real x
!hpf$ distribute (block) :: a
do i = 1, n
a(i) = 1
enddo
do i = 5, 4
a(i) = 99
enddo
x = 0
end
`

func TestZeroTripLoop(t *testing.T) {
	a := compile(t, zeroTripSrc, map[string]int{"n": 8}, 4)
	res := placed(t, a, core.VersionCombine)
	run, err := RunParallel(res, machine.SP2(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		if got := readOwner(run.Mem, "a", i); got != 1 {
			t.Errorf("a[%d] = %v after zero-trip loop, want 1", i, got)
		}
	}
}

func TestStepLoop(t *testing.T) {
	src := `
routine sl(n)
real a(n)
!hpf$ distribute (block) :: a
do i = 1, n
a(i) = 0
enddo
do i = 1, n, 3
a(i) = 7
enddo
end
`
	a := compile(t, src, map[string]int{"n": 10}, 2)
	res := placed(t, a, core.VersionCombine)
	run, err := RunParallel(res, machine.SP2(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		want := 0.0
		if (i-1)%3 == 0 {
			want = 7
		}
		if got := readOwner(run.Mem, "a", i); got != want {
			t.Errorf("a[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestCountFlops(t *testing.T) {
	a := compile(t, stencilSrc, map[string]int{"n": 6, "steps": 1}, 4)
	// The stencil statement has 3 adds, 1 mul = 4 binary ops.
	found := false
	for _, st := range a.G.Stmts {
		if st.Assign.LHS.Name == "b" && st.NL() == 3 {
			if got := plan.CountFlops(st.Assign.RHS); got != 4 {
				t.Errorf("stencil flops = %d, want 4", got)
			}
			found = true
		}
	}
	if !found {
		t.Error("stencil statement not found")
	}
}

const replicatedSrc = `
routine rep(n)
real a(n), r(n)
real s
!hpf$ distribute (block) :: a
do i = 1, n
r(i) = i * 2
enddo
do i = 1, n
a(i) = r(i) + min(1.0, 2.0) + max(3.0, 1.0) + abs(0 - 2) + sqrt(4.0) + exp(0.0) + mod(5.0, 3.0)
enddo
s = sum(r(1:n))
end
`

// TestReplicatedAndIntrinsics exercises replicated-array statements,
// the intrinsic evaluators, and SUM over replicated data (local, no
// reduce group).
func TestReplicatedAndIntrinsics(t *testing.T) {
	a := compile(t, replicatedSrc, map[string]int{"n": 8}, 4)
	res := placed(t, a, core.VersionCombine)
	if got := res.Counts()[core.KindReduce]; got != 0 {
		t.Errorf("sum over replicated array placed %d reduce groups, want 0", got)
	}
	run, err := RunParallel(res, machine.SP2(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// a(i) = 2i + 1 + 3 + 2 + 2 + 1 + 2 = 2i + 11
	if got := readOwner(run.Mem, "a", 3); got != 17 {
		t.Errorf("a[3] = %v, want 17", got)
	}
	want := 0.0
	for i := 1; i <= 8; i++ {
		want += float64(2 * i)
	}
	if run.Scalars["s"] != want {
		t.Errorf("s = %v, want %v", run.Scalars["s"], want)
	}
}

const negStepSrc = `
routine ns(n)
real a(n)
!hpf$ distribute (block) :: a
do i = 1, n
a(i) = 0
enddo
do i = n, 1, -2
a(i) = i
enddo
end
`

func TestNegativeStepLoop(t *testing.T) {
	a := compile(t, negStepSrc, map[string]int{"n": 9}, 2)
	res := placed(t, a, core.VersionCombine)
	run, err := RunParallel(res, machine.SP2(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// i = 9, 7, 5, 3, 1 set; evens stay zero.
	for i := 1; i <= 9; i++ {
		want := 0.0
		if i%2 == 1 {
			want = float64(i)
		}
		if got := readOwner(run.Mem, "a", i); got != want {
			t.Errorf("a[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestEstimateBcastAndGeneral(t *testing.T) {
	src := `
routine bg(n)
real a(n)
real x
!hpf$ distribute (block) :: a
do i = 1, n
a(i) = i
enddo
x = a(3)
a(2) = a(n)
end
`
	a := compile(t, src, map[string]int{"n": 16}, 4)
	res := placed(t, a, core.VersionCombine)
	c, err := Estimate(res, machine.NOW())
	if err != nil {
		t.Fatal(err)
	}
	if c.Net <= 0 || c.Messages <= 0 {
		t.Errorf("bcast/general cost = %+v", c)
	}
	run, err := RunParallel(res, machine.NOW(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run.Scalars["x"] != 3 {
		t.Errorf("x = %v, want 3", run.Scalars["x"])
	}
	if got := readOwner(run.Mem, "a", 2); got != 16 {
		t.Errorf("a[2] = %v, want 16", got)
	}
}

func TestRunDeterminism(t *testing.T) {
	a := compile(t, stencilSrc, map[string]int{"n": 10, "steps": 2}, 4)
	res := placed(t, a, core.VersionCombine)
	r1, err := RunParallel(res, machine.SP2(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunParallel(res, machine.SP2(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Ledger.DynMessages != r2.Ledger.DynMessages ||
		r1.Ledger.BytesMoved != r2.Ledger.BytesMoved ||
		elapsed(r1.Ledger) != elapsed(r2.Ledger) {
		t.Error("simulation must be deterministic")
	}
	if err := runtime.CompareState(r1.Mem, r2.Mem, r1.Scalars, r2.Scalars); err != nil {
		t.Errorf("identical runs differ: %v", err)
	}
}
