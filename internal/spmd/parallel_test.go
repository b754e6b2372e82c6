package spmd

import (
	"fmt"
	"math"
	"reflect"
	"regexp"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/obs"
	"gcao/internal/plan"
)

// miniGravitySrc is a condensed gravity sweep: a 3-d (*,BLOCK,BLOCK)
// field swept plane by plane with NNC stencils, boundary SUM
// reductions feeding replicated scalars, a replicated-array write, and
// a branch over a distributed array — every rendezvous kind the
// sharded engine has.
const miniGravitySrc = `
routine mg(nx, ny, nz, steps)
real g(nx, ny, nz)
real glast(ny, nz), w(ny, nz)
real r(4)
real s1, s2, c
!hpf$ distribute (*, block, block) :: g
!hpf$ distribute (block, block) :: glast, w
c = 0.25
do j = 1, ny
do k = 1, nz
glast(j, k) = 0
w(j, k) = 0
do i = 1, nx
g(i, j, k) = 1.0 + mod(i + 2 * j + 3 * k, 7) * 0.125
enddo
enddo
enddo
do it = 1, steps
do i = 2, nx - 1
do j = 2, ny - 1
do k = 2, nz - 1
w(j, k) = g(i, j - 1, k) + g(i, j + 1, k) + g(i, j, k - 1) + g(i, j, k + 1) - 4 * g(i, j, k)
enddo
enddo
s1 = sum(g(i, ny, 1:nz))
s2 = sum(glast(1, 1:nz))
r(1) = s1 + s2
do j = 2, ny - 1
do k = 2, nz - 1
w(j, k) = w(j, k) + 0.001 * (s1 + s2) + 0.0001 * r(1)
enddo
enddo
if (g(2, 2, 2) > 0) then
do j = 2, ny - 1
do k = 2, nz - 1
glast(j, k) = g(i, j, k)
g(i, j, k) = g(i, j, k) + c * w(j, k)
enddo
enddo
endif
enddo
enddo
end
`

// runPair executes the same placement sequentially and with the given
// shard count, both profiled.
func runPair(t *testing.T, res *core.Result, procs, workers int) (seq, par *RunResult, seqProf, parProf *obs.CommProfile) {
	t.Helper()
	m := machine.SP2()
	recSeq, recPar := obs.New(), obs.New()
	seq, err := RunParallelObs(res, m, procs, 1, recSeq)
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	par, err = RunParallelObs(res, m, procs, workers, recPar)
	if err != nil {
		t.Fatalf("parallel run (j=%d): %v", workers, err)
	}
	return seq, par, recSeq.CommProfile(), recPar.CommProfile()
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// requireBitIdentical compares every observable of two runs exactly:
// ledger clocks and counters, canonical memory and per-processor raw
// rows (including ghost copies and validity), replicated scalars, and
// the communication profile. The superstep stream is compared by
// TestAttributionMatchesSequential.
func requireBitIdentical(t *testing.T, res *core.Result, workers int, seq, par *RunResult, seqProf, parProf *obs.CommProfile) {
	t.Helper()
	if !sameFloats(seq.Ledger.CPU, par.Ledger.CPU) {
		t.Errorf("j=%d: CPU clocks differ:\nseq %v\npar %v", workers, seq.Ledger.CPU, par.Ledger.CPU)
	}
	if !sameFloats(seq.Ledger.Net, par.Ledger.Net) {
		t.Errorf("j=%d: Net clocks differ:\nseq %v\npar %v", workers, seq.Ledger.Net, par.Ledger.Net)
	}
	if !reflect.DeepEqual(seq.Ledger.MsgsRecv, par.Ledger.MsgsRecv) {
		t.Errorf("j=%d: MsgsRecv differ: %v vs %v", workers, seq.Ledger.MsgsRecv, par.Ledger.MsgsRecv)
	}
	if seq.Ledger.DynMessages != par.Ledger.DynMessages ||
		seq.Ledger.BytesMoved != par.Ledger.BytesMoved ||
		seq.Ledger.Barriers != par.Ledger.Barriers {
		t.Errorf("j=%d: counters differ: msgs %d/%d bytes %d/%d barriers %d/%d", workers,
			seq.Ledger.DynMessages, par.Ledger.DynMessages,
			seq.Ledger.BytesMoved, par.Ledger.BytesMoved,
			seq.Ledger.Barriers, par.Ledger.Barriers)
	}
	if !reflect.DeepEqual(seq.Scalars, par.Scalars) {
		t.Errorf("j=%d: scalars differ: %v vs %v", workers, seq.Scalars, par.Scalars)
	}
	for _, name := range res.Analysis.Unit.ArrayNames {
		if !sameFloats(seq.Mem.Canonical(name), par.Mem.Canonical(name)) {
			t.Errorf("j=%d: canonical %s differs", workers, name)
		}
		vs, vp := seq.Mem.View(name), par.Mem.View(name)
		for p := range vs.Data {
			if !sameFloats(vs.Data[p], vp.Data[p]) {
				t.Errorf("j=%d: %s raw row for proc %d differs", workers, name, p)
			}
			if !reflect.DeepEqual(vs.ValidPlane(p), vp.ValidPlane(p)) {
				t.Errorf("j=%d: %s validity for proc %d differs", workers, name, p)
			}
		}
	}
	if seqProf == nil || parProf == nil {
		t.Fatalf("j=%d: missing comm profile (seq %v, par %v)", workers, seqProf != nil, parProf != nil)
	}
	if !reflect.DeepEqual(seqProf.PairBytes, parProf.PairBytes) ||
		!reflect.DeepEqual(seqProf.PairMsgs, parProf.PairMsgs) {
		t.Errorf("j=%d: pair matrices differ", workers)
	}
	if !sameFloats(seqProf.ComputeSec, parProf.ComputeSec) ||
		!sameFloats(seqProf.CommSec, parProf.CommSec) ||
		!sameFloats(seqProf.IdleSec, parProf.IdleSec) {
		t.Errorf("j=%d: per-processor time splits differ", workers)
	}
}

// TestParallelMatchesSequential is the engine's contract: every shard
// count yields bit-identical results to the single-shard path, for
// every compiler version, on a program exercising every rendezvous.
func TestParallelMatchesSequential(t *testing.T) {
	const procs = 16
	params := map[string]int{"nx": 6, "ny": 13, "nz": 13, "steps": 3}
	a := compile(t, miniGravitySrc, params, procs)
	for _, v := range []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine} {
		res := placed(t, a, v)
		for _, workers := range []int{2, 3, 4, 7, procs} {
			seq, par, seqProf, parProf := runPair(t, res, procs, workers)
			requireBitIdentical(t, res, workers, seq, par, seqProf, parProf)
		}
	}
}

// TestParallelMatchesSequentialStencil covers the 2-d (BLOCK,BLOCK)
// shape on an uneven shard split.
func TestParallelMatchesSequentialStencil(t *testing.T) {
	a := compile(t, stencilSrc, map[string]int{"n": 14, "steps": 2}, 9)
	for _, v := range []core.Version{core.VersionOrig, core.VersionCombine} {
		res := placed(t, a, v)
		for _, workers := range []int{2, 4, 5, 9} {
			seq, par, seqProf, parProf := runPair(t, res, 9, workers)
			requireBitIdentical(t, res, workers, seq, par, seqProf, parProf)
		}
	}
}

// TestParallelReduction pins the reduction path: replicated scalar
// results must agree across shard counts.
func TestParallelReduction(t *testing.T) {
	a := compile(t, reduceSrc, map[string]int{"n": 12}, 9)
	res := placed(t, a, core.VersionCombine)
	for _, workers := range []int{2, 3, 9} {
		_, par, _, _ := runPair(t, res, 9, workers)
		if par.Scalars["s1"] != 12 {
			t.Errorf("j=%d: s1 = %v, want 12", workers, par.Scalars["s1"])
		}
		if par.Scalars["s2"] != 144 {
			t.Errorf("j=%d: s2 = %v, want 144", workers, par.Scalars["s2"])
		}
	}
}

// TestAutoWorkers pins the sequential-path threshold: given no shard
// count, an engine below DefaultParallelThreshold processors runs on one
// shard, and from it on min(GOMAXPROCS, procs).
func TestAutoWorkers(t *testing.T) {
	for _, procs := range []int{1, DefaultParallelThreshold - 1, DefaultParallelThreshold} {
		a := compile(t, stencilSrc, map[string]int{"n": 16, "steps": 1}, procs)
		eng, err := NewEngine(placed(t, a, core.VersionCombine), procs, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		if procs >= DefaultParallelThreshold {
			want = min(goruntime.GOMAXPROCS(0), procs)
		}
		if got := len(eng.shards); got != want {
			t.Errorf("procs=%d: %d shards, want %d", procs, got, want)
		}
	}
}

// TestSimulateOutOfRangeSubscriptIsError: a subscript outside the
// declared bounds is an error value naming the array and the source
// position — from the entry check of a localized nest, the per-element
// check of a guarded walk, a left-hand side and a SUM section past the
// bounds (positioned at the call, here in the middle of a statement
// rendezvous) alike — not a panic that takes the caller down. Every
// shard goroutine has exited when the run returns, whatever rendezvous
// its peers were parked at, and the engine runs again afterwards.
func TestSimulateOutOfRangeSubscriptIsError(t *testing.T) {
	const outside = "outside the declared 1:12"
	for _, tc := range []struct {
		name, body string
		want       []string
	}{
		{"localized-nest", "do i = 1, n\nb(i) = a(i + 5)\nenddo\n", []string{"spmd: processor ", "10:8: a: subscript", outside}},
		{"guarded-walk", "do i = 1, n\nx = i\nb(i) = a(i + 5)\nenddo\n", []string{"spmd: processor ", "11:8: a: subscript", outside}},
		{"left-hand-side", "do i = 1, n\nx = i\nb(i + 5) = a(i)\nenddo\n", []string{"spmd: processor ", "11:1: b: subscript", outside}},
		{"sum-section", "x = sum(a(1:n + 5))\n", []string{"spmd: processor ", " at 9:1: 9:5: a: subscript 1:17", outside}},
		{"sum-replicated", "x = sum(c(1:n + 5))\n", []string{"spmd: processor ", " at 9:1: 9:5: c: subscript 1:17", outside}},
		{"sum-condition", "if (sum(a(0:n)) > 0) then\nx = 1\nendif\n", []string{"spmd: processor ", "9:5: a: subscript 0:12", outside}},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/j%d", tc.name, workers), func(t *testing.T) {
				src := "routine r(n)\nreal a(n), b(n), c(n)\nreal x\n!hpf$ distribute (block) :: a, b\n" +
					"do i = 1, n\na(i) = i\nb(i) = 0\nenddo\n" + tc.body + "end\n"
				res := placed(t, compile(t, src, map[string]int{"n": 12}, 4), core.VersionCombine)
				eng, err := NewEngine(res, 4, workers)
				if err != nil {
					t.Fatal(err)
				}
				before := goruntime.NumGoroutine()
				// Twice on one engine: a failed run — shards stopped in a
				// nest, at a rendezvous, anywhere — leaves it fit to run
				// again, to the same error (on one shard, the very same).
				var first string
				for run := 0; run < 2; run++ {
					_, err := eng.Run(machine.SP2(), nil)
					if err == nil {
						t.Fatal("out-of-range subscript not reported")
					}
					for _, want := range tc.want {
						if !strings.Contains(err.Error(), want) {
							t.Errorf("run %d: error %q lacks %q", run, err, want)
						}
					}
					if run == 0 {
						first = err.Error()
					} else if workers == 1 && err.Error() != first {
						t.Errorf("run 1 on the same engine reports %q, run 0 %q", err, first)
					}
				}
				// The run waits for its goroutines' deferred Done, which
				// precedes their actual exit by a few instructions.
				deadline := time.Now().Add(5 * time.Second)
				for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
					goruntime.Gosched()
				}
				if after := goruntime.NumGoroutine(); after > before {
					t.Errorf("%d goroutines before the failed run, %d after", before, after)
				}
			})
		}
	}
}

// TestSimulateUnboundScalarInNest: an operand that fails inside a row
// loop is reported by the tree walk the row falls back to — at its
// statement, not at the loop — on any shard count. Every processor fails
// alike; with a shard each, whichever fails first is the one reported.
func TestSimulateUnboundScalarInNest(t *testing.T) {
	src := "routine r(n)\nreal a(n, n), b(n, n)\nreal x\n!hpf$ distribute (block, block) :: a, b\n" +
		"do i = 1, n\ndo j = 1, n\na(i, j) = 1\nb(i, j) = a(i, j) + x\nenddo\nenddo\nend\n"
	res := placed(t, compile(t, src, map[string]int{"n": 8}, 4), core.VersionCombine)
	for workers, proc := range map[int]string{1: "0", 4: "[0-3]"} {
		_, err := RunParallelObs(res, machine.SP2(), 4, workers, nil)
		if want := regexp.MustCompile(`^spmd: processor ` + proc + ` at 8:1: 8:21: unbound scalar "x"$`); err == nil || !want.MatchString(err.Error()) {
			t.Errorf("j=%d: run returned %v, want %s", workers, err, want)
		}
	}
}

// TestSimulateLoweredErrorsPositioned: what lowering cannot make an
// integer of fails the run when evaluated, positioned at the expression —
// a subscript naming neither an enclosing loop's variable nor a
// parameter, a section where an element is needed, an integer division
// or mod by zero.
func TestSimulateLoweredErrorsPositioned(t *testing.T) {
	for _, tc := range []struct{ rhs, want string }{
		{"b(x)", `6:10: "x" is not an integer here`},
		{"b(2:3)", "6:8: section of b where an element is needed"},
		{"b(n / (i - i))", "6:12: division by zero"},
		{"b(mod(n, i - i))", "6:10: mod by zero"},
	} {
		src := "routine r(n)\nreal a(n), b(n)\nreal x\n!hpf$ distribute (block) :: a, b\ndo i = 1, n\na(i) = " + tc.rhs + "\nenddo\nend\n"
		res := placed(t, compile(t, src, map[string]int{"n": 8}, 4), core.VersionCombine)
		for _, workers := range []int{1, 4} {
			_, err := RunParallelObs(res, machine.SP2(), 4, workers, nil)
			if want := regexp.MustCompile(`^spmd: processor [0-3] at 6:1: ` + regexp.QuoteMeta(tc.want) + `$`); err == nil || !want.MatchString(err.Error()) {
				t.Errorf("%s, j=%d: run returned %v, want %s", tc.rhs, workers, err, want)
			}
		}
	}
}

// TestEngineRunsAfterPanic: a panic under a shard in the middle of a run —
// memory written, peers parked at a rendezvous — is a positioned error, and
// the engine's next run, the program whole again, leaves bit for bit what a
// new engine's leaves.
func TestEngineRunsAfterPanic(t *testing.T) {
	const procs = 16
	m := machine.SP2()
	res := placed(t, compile(t, miniGravitySrc, map[string]int{"nx": 6, "ny": 13, "nz": 13, "steps": 2}, procs), core.VersionCombine)
	for _, workers := range []int{1, 4} {
		recF := obs.New()
		fresh, err := RunParallelObs(res, m, procs, workers, recF)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(res, procs, workers)
		if err != nil {
			t.Fatal(err)
		}
		whole := eng.prog.Body
		// A statement with no source behind it: executing it dereferences nil.
		eng.prog.Body = append(append(append([]plan.Node(nil), whole[:len(whole)-1]...), &plan.Stmt{}), whole[len(whole)-1])
		before := goruntime.NumGoroutine()
		if _, err := eng.Run(m, obs.New()); err == nil || !strings.Contains(err.Error(), "panic: ") || !strings.Contains(err.Error(), "spmd: processor range [") {
			t.Fatalf("j=%d: run over a panicking statement returned %v", workers, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
			goruntime.Gosched()
		}
		if after := goruntime.NumGoroutine(); after > before {
			t.Errorf("j=%d: %d goroutines before the failed run, %d after", workers, before, after)
		}
		eng.prog.Body = whole
		rec := obs.New()
		out, err := eng.Run(m, rec)
		if err != nil {
			t.Fatalf("j=%d: run after the panic: %v", workers, err)
		}
		requireBitIdentical(t, res, workers, fresh, out, recF.CommProfile(), rec.CommProfile())
	}
}
