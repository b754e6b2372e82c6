package spmd

import (
	"math"
	"testing"

	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/obs"
	"gcao/internal/runtime"
)

// TestProfileMatchesLedger: the communication profile and the superstep
// record reconcile with the ledger of the same run — the steps' totals
// equal the ledger's global counts exactly, the pair matrix shows real
// point-to-point traffic for a multi-processor stencil, and the time
// split tiles each processor's clock.
func TestProfileMatchesLedger(t *testing.T) {
	a := compile(t, stencilSrc, map[string]int{"n": 8, "steps": 2}, 4)
	rec := obs.New()
	res := placed(t, a, core.VersionCombine)
	run, err := RunParallelObs(res, machine.SP2(), 4, 0, rec)
	if err != nil {
		t.Fatal(err)
	}
	prof, steps := rec.CommProfile(), rec.Attribution()
	if prof == nil || steps == nil {
		t.Fatal("run with a recorder produced no profile")
	}
	if prof.Procs != 4 {
		t.Errorf("profile procs = %d, want 4", prof.Procs)
	}
	if got := steps.TotalBytes(); got != int64(run.Ledger.BytesMoved) {
		t.Errorf("superstep bytes sum to %d, ledger moved %d", got, run.Ledger.BytesMoved)
	}
	if got := steps.TotalMessages(); got != run.Ledger.DynMessages {
		t.Errorf("superstep messages sum to %d, ledger counted %d", got, run.Ledger.DynMessages)
	}
	if len(steps.Steps) == 0 {
		t.Error("stencil run recorded no supersteps")
	}
	// Pair matrix: every shift byte is attributed to a sender→receiver
	// pair, so the matrix total matches the ledger too (the stencil has
	// no collectives).
	var pairTotal int64
	for _, row := range prof.PairBytes {
		for _, b := range row {
			pairTotal += b
		}
	}
	if pairTotal != int64(run.Ledger.BytesMoved) {
		t.Errorf("pair matrix sums to %d bytes, ledger moved %d", pairTotal, run.Ledger.BytesMoved)
	}
	if prof.MaxPairBytes() == 0 {
		t.Error("4-processor stencil must have point-to-point traffic")
	}
	// Time split: compute + comm + idle per processor, all non-negative,
	// and compute+comm+idle must equal the processor's elapsed clock.
	wall := elapsed(run.Ledger)
	for p := 0; p < 4; p++ {
		if prof.ComputeSec[p] < 0 || prof.CommSec[p] < -1e-12 || prof.IdleSec[p] < 0 {
			t.Errorf("p%d: negative time split: compute=%v comm=%v idle=%v",
				p, prof.ComputeSec[p], prof.CommSec[p], prof.IdleSec[p])
		}
		if sum := prof.ComputeSec[p] + prof.CommSec[p] + prof.IdleSec[p]; math.Abs(sum-wall) > 1e-12*wall {
			t.Errorf("p%d: compute+comm+idle = %v, elapsed clock %v", p, sum, wall)
		}
	}
	// Counters mirror the ledger.
	c := rec.Counters()
	if c["spmd.comb.messages"] != int64(run.Ledger.DynMessages) {
		t.Errorf("spmd.comb.messages = %d, want %d", c["spmd.comb.messages"], run.Ledger.DynMessages)
	}
	if c["spmd.comb.supersteps"] != int64(len(steps.Steps)) {
		t.Errorf("spmd.comb.supersteps = %d, want %d", c["spmd.comb.supersteps"], len(steps.Steps))
	}
}

// TestProfileDoesNotPerturbRun: the instrumented run must behave
// identically to the bare run — same messages, bytes, and elapsed time.
func TestProfileDoesNotPerturbRun(t *testing.T) {
	a := compile(t, stencilSrc, map[string]int{"n": 8, "steps": 1}, 4)
	res := placed(t, a, core.VersionCombine)
	bare, err := RunParallel(res, machine.SP2(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	inst, err := RunParallelObs(res, machine.SP2(), 4, 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Ledger.DynMessages != inst.Ledger.DynMessages ||
		bare.Ledger.BytesMoved != inst.Ledger.BytesMoved ||
		bare.Ledger.Barriers != inst.Ledger.Barriers ||
		elapsed(bare.Ledger) != elapsed(inst.Ledger) {
		t.Errorf("instrumented run differs: bare {msgs %d bytes %d barriers %d t %v}, instrumented {msgs %d bytes %d barriers %d t %v}",
			bare.Ledger.DynMessages, bare.Ledger.BytesMoved, bare.Ledger.Barriers, elapsed(bare.Ledger),
			inst.Ledger.DynMessages, inst.Ledger.BytesMoved, inst.Ledger.Barriers, elapsed(inst.Ledger))
	}
	if err := runtime.CompareState(bare.Mem, inst.Mem, bare.Scalars, inst.Scalars); err != nil {
		t.Errorf("instrumented run computed different values: %v", err)
	}
}

// TestProfileReductionSteps: collective operations appear in the
// superstep timeline (with tree-accounted bytes) even though they skip
// the point-to-point pair matrix.
func TestProfileReductionSteps(t *testing.T) {
	a := compile(t, reduceSrc, map[string]int{"n": 8}, 4)
	rec := obs.New()
	res := placed(t, a, core.VersionCombine)
	run, err := RunParallelObs(res, machine.SP2(), 4, 0, rec)
	if err != nil {
		t.Fatal(err)
	}
	steps := rec.Attribution()
	if steps == nil {
		t.Fatal("no superstep record")
	}
	sums := 0
	for _, s := range steps.Steps {
		if s.Kind == core.KindReduce.String() {
			sums++
			if s.Messages <= 0 || s.Bytes <= 0 {
				t.Errorf("reduction superstep %d has no traffic: %+v", s.Index, s)
			}
		}
	}
	if sums == 0 {
		t.Error("reduction run recorded no SUM supersteps")
	}
	if got := steps.TotalBytes(); got != int64(run.Ledger.BytesMoved) {
		t.Errorf("superstep bytes %d != ledger %d with collectives", got, run.Ledger.BytesMoved)
	}
}
