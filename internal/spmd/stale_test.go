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
	res, err := a.Place(core.Options{Version: core.VersionCombine})
	if err != nil {
		t.Fatal(err)
	}
	res.Groups = nil
	return res
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
			_, err := spmd.RunParallelObs(tc.res, machine.SP2(), 4, 1, nil)
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
	_, err := spmd.RunParallelObs(res, machine.SP2(), 2, 1, nil)
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
