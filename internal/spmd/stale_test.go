package spmd_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/parser"
	"gcao/internal/runtime"
	"gcao/internal/sem"
	"gcao/internal/spmd"
)

// stripped compiles and places a program, then drops every
// communication group of the placement.
func stripped(t *testing.T, src string, params map[string]int, procs int) *core.Result {
	t.Helper()
	res := placeSrc(t, src, params, procs)
	res.Groups = nil
	return res
}

// analyzeSrc parses, checks and analyses a program.
func analyzeSrc(t *testing.T, src string, params map[string]int, procs int) *core.Analysis {
	t.Helper()
	r, err := parser.ParseRoutine(src)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sem.Analyze(r, params, sem.Options{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalysis(u)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// placeSrc compiles a program and places it under comb.
func placeSrc(t *testing.T, src string, params map[string]int, procs int) *core.Result {
	t.Helper()
	res, err := analyzeSrc(t, src, params, procs).Place(core.Options{Version: core.VersionCombine})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runChecked runs the placement on one shard, twice on one engine — a
// failed run must leave its engine fit to run again, to the same positioned
// error — and, whether the runs failed or not, checks the ghost hulls
// against the planes the last left: no valid copy outside its processor's
// hull, so that invalidation — which looks inside the hull only — cannot
// have left one to hide a stale read.
func runChecked(t *testing.T, res *core.Result, procs int) error {
	t.Helper()
	eng, err := spmd.NewEngine(res, procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, first := eng.Run(machine.SP2(), nil)
	_, err = eng.Run(machine.SP2(), nil)
	if (first == nil) != (err == nil) || err != nil && first.Error() != err.Error() {
		t.Errorf("the second run on one engine returned %v, the first %v", err, first)
	}
	if herr := eng.Memory().CheckHulls(); herr != nil {
		t.Error(herr)
	}
	return err
}

// TestParallelStaleReadDetected: validity tracking must survive
// sharding — a stripped placement still fails with a stale read, on
// every shard count, without deadlocking the phaser. On one shard the
// run is deterministic, and the error is pinned: the stale element is
// found a row at a time but reported by the element walk the row falls
// back to, so processor, array, index and statement position are the
// ones the element walk has always reported.
func TestParallelStaleReadDetected(t *testing.T) {
	res := stripped(t, spmd.StencilSrc, map[string]int{"n": 14, "steps": 1}, 9)
	for _, workers := range []int{1, 3, 9} {
		_, err := spmd.RunParallelObs(res, machine.SP2(), 9, workers, nil)
		var stale *runtime.StaleReadError
		if !errors.As(err, &stale) {
			t.Errorf("j=%d: run without communication returned %v, want a *runtime.StaleReadError", workers, err)
		}
	}

	gravity, err := bench.ByName("gravity", "main")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		res  *core.Result
		want runtime.StaleReadError
		at   string
	}{
		{"stencil-stripped", stripped(t, spmd.StencilSrc, map[string]int{"n": 14, "steps": 1}, 4),
			runtime.StaleReadError{Proc: 0, Array: "a", Index: []int{2, 8}}, "spmd: processor 0 at 14:1: "},
		{"gravity-stripped", stripped(t, gravity.Source, gravity.Params(12), 4),
			runtime.StaleReadError{Proc: 0, Array: "g", Index: []int{2, 2, 7}}, "spmd: processor 0 at 23:1: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := runChecked(t, tc.res, 4)
			var stale *runtime.StaleReadError
			if !errors.As(err, &stale) {
				t.Fatalf("run returned %v, want a *runtime.StaleReadError", err)
			}
			if !reflect.DeepEqual(*stale, tc.want) {
				t.Errorf("stale read %+v, want %+v", *stale, tc.want)
			}
			if !strings.HasPrefix(err.Error(), tc.at) {
				t.Errorf("error %q is not positioned %q", err, tc.at)
			}
		})
	}
}

// staleLastRowSrc updates b in place from the row below, rows of 100
// elements, two to a batch: at P=2 processor 0 owns rows 1-6, and the
// row its neighbour owns is read from the last row of its last batch.
const staleLastRowSrc = `
routine r(n)
real a(n, 100), b(n, 100)
!hpf$ distribute (block, *) :: a, b
do i = 1, n
do j = 1, 100
a(i, j) = i + j
b(i, j) = i - j
enddo
enddo
do i = 1, n - 1
do j = 1, 100
b(i, j) = b(i, j) + a(i + 1, j)
enddo
enddo
end
`

// TestStaleReadInLastBatchOfBox: a box kernel that cannot prove a row
// after it has run others hands that row to the element walk, which
// reports the element, processor and statement position it reported
// before there were kernels.
func TestStaleReadInLastBatchOfBox(t *testing.T) {
	res := stripped(t, staleLastRowSrc, map[string]int{"n": 12}, 2)
	err := runChecked(t, res, 2)
	var stale *runtime.StaleReadError
	if !errors.As(err, &stale) {
		t.Fatalf("run returned %v, want a *runtime.StaleReadError", err)
	}
	if want := (runtime.StaleReadError{Proc: 0, Array: "a", Index: []int{7, 1}}); !reflect.DeepEqual(*stale, want) {
		t.Errorf("stale read %+v, want %+v", *stale, want)
	}
	if at := "spmd: processor 0 at 13:1: "; !strings.HasPrefix(err.Error(), at) {
		t.Errorf("error %q is not positioned %q", err, at)
	}
}

// rewriteSrc reads a's ghosts, rewrites a, and reads the ghosts again:
// the copies the first exchanges delivered are stale by then.
const rewriteSrc = `
routine w(n)
real a(n, n), b(n, n)
!hpf$ distribute (block, block) :: a, b
do i = 1, n
do j = 1, n
a(i, j) = i * 10 + j
b(i, j) = 0
enddo
enddo
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
do i = 2, n - 1
do j = 2, n - 1
b(i, j) = a(i - 1, j) + a(i + 1, j) + a(i, j - 1) + a(i, j + 1)
enddo
enddo
end
`

// TestStaleReadAfterDeliveryAndRewrite: with any one group of the
// placement dropped the run fails with a stale read — also when the
// dropped exchange is one of the second round, whose elements the
// processor does hold, delivered by the first round and since rewritten
// by their owners: the nest that rewrote them cleared them, inside the
// ghost hull those deliveries had grown. The whole placement runs clean.
func TestStaleReadAfterDeliveryAndRewrite(t *testing.T) {
	res := stripped(t, rewriteSrc, map[string]int{"n": 12}, 4)
	full, err := res.Analysis.Place(core.Options{Version: core.VersionCombine})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Groups) < 8 {
		t.Fatalf("%d groups placed, want two rounds of four exchanges", len(full.Groups))
	}
	if err := runChecked(t, full, 4); err != nil {
		t.Fatalf("the whole placement: %v", err)
	}
	for drop := range full.Groups {
		res.Groups = append(append([]*core.Group(nil), full.Groups[:drop]...), full.Groups[drop+1:]...)
		err := runChecked(t, res, 4)
		var stale *runtime.StaleReadError
		if !errors.As(err, &stale) {
			t.Errorf("without %v the run returned %v, want a *runtime.StaleReadError", full.Groups[drop], err)
		}
	}
}
