package core_test

import (
	"testing"

	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/runtime"
	"gcao/internal/spmd"
)

// partialSrc builds two same-direction reads of a whose vectorized
// sections overlap without either containing the other (rows 0..n-1 vs
// rows 1..n), separated from a's redefinition by the timestep loop.
const partialSrc = `
routine pr(n, steps)
real a(0:n+1, 0:n+1), c(0:n+1, 0:n+1), d(0:n+1, 0:n+1)
!hpf$ distribute (block, block) :: a, c, d
do i = 0, n + 1
do j = 0, n + 1
a(i, j) = i * 100 + j
c(i, j) = 0
d(i, j) = 0
enddo
enddo
do it = 1, steps
do i = 1, n
do j = 1, n
c(i, j) = a(i - 1, j)
enddo
enddo
do i = 2, n + 1
do j = 1, n
d(i, j) = a(i - 1, j)
enddo
enddo
do i = 1, n
do j = 1, n
a(i, j) = 0.5 * (c(i, j) + d(i, j))
enddo
enddo
enddo
end
`

// TestPartialRedundancy exercises the §7 future-work extension: with
// combining blocked (tiny threshold) the two a-exchanges land at
// separate points; partial redundancy trims the later one to the
// single uncovered row, and the functional simulator proves the
// trimmed schedule still delivers everything the computation reads.
func TestPartialRedundancy(t *testing.T) {
	a := analyze(t, partialSrc, map[string]int{"n": 8, "steps": 2}, 4)
	opts := core.Options{
		Version:               core.VersionCombine,
		CombineThresholdBytes: 60, // block combining of the two strips
		PartialRedundancy:     true,
	}
	res, err := a.Place(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reduced) != 1 {
		for _, g := range res.Groups {
			for _, e := range g.Entries {
				t.Logf("group%d@%v: %v sec=%v", g.ID, g.Pos, e, res.CommSection(e, g.Pos.Level()))
			}
		}
		t.Fatalf("Reduced entries = %d, want 1", len(res.Reduced))
	}
	for e, sec := range res.Reduced {
		full := e.SectionAt(a, 1)
		nFull, _ := full.NumElems()
		nRed, ok := sec.NumElems()
		if !ok || nRed >= nFull {
			t.Errorf("%v: reduced %v (%d) not smaller than full %v (%d)", e, sec, nRed, full, nFull)
		}
	}

	// Soundness: the trimmed schedule must still satisfy every read.
	run, err := spmd.RunParallel(res, machine.SP2(), 4, 0)
	if err != nil {
		t.Fatalf("functional run with trimmed schedule: %v", err)
	}
	// And match the untrimmed schedule's results.
	baseRes, err := a.Place(core.Options{Version: core.VersionCombine, CombineThresholdBytes: 60})
	if err != nil {
		t.Fatal(err)
	}
	base, err := spmd.RunParallel(baseRes, machine.SP2(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := runtime.CompareState(run.Mem, base.Mem, run.Scalars, base.Scalars); err != nil {
		t.Fatalf("trimmed vs untrimmed results differ: %v", err)
	}
	// The trimmed schedule moves fewer bytes.
	if run.Ledger.BytesMoved >= base.Ledger.BytesMoved {
		t.Errorf("trimmed schedule moved %d bytes, untrimmed %d", run.Ledger.BytesMoved, base.Ledger.BytesMoved)
	}
}

// TestPartialRedundancyEstimate: the analytic estimator sees the
// reduced volume too.
func TestPartialRedundancyEstimate(t *testing.T) {
	a := analyze(t, partialSrc, map[string]int{"n": 32, "steps": 2}, 4)
	m := machine.SP2()
	base, err := a.Place(core.Options{Version: core.VersionCombine, CombineThresholdBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	trimmed, err := a.Place(core.Options{Version: core.VersionCombine, CombineThresholdBytes: 200, PartialRedundancy: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(trimmed.Reduced) == 0 {
		t.Fatal("expected a reduction at n=32")
	}
	cb, err := spmd.Estimate(base, m)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := spmd.Estimate(trimmed, m)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Bytes >= cb.Bytes {
		t.Errorf("estimated bytes did not shrink: %v vs %v", ct.Bytes, cb.Bytes)
	}
}

// TestPartialRedundancyNoFalseTrims: with the default threshold the
// two reads combine into one exchange, and nothing is trimmed.
func TestPartialRedundancyNoFalseTrims(t *testing.T) {
	a := analyze(t, partialSrc, map[string]int{"n": 8, "steps": 2}, 4)
	res, err := a.Place(core.Options{Version: core.VersionCombine, PartialRedundancy: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reduced) != 0 {
		t.Errorf("combined schedule should have no partial trims, got %d", len(res.Reduced))
	}
}
