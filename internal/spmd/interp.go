// Package spmd executes compiled programs on the simulated
// distributed-memory machine. It provides two engines:
//
//   - A functional bulk-synchronous simulator, run through RunParallel (a
//     placement result, lowered for the one run on an engine of its own,
//     unprofiled) or RunPooled (a lowered program, on an idle engine from
//     the caller's pool, profiled into the recorder it is given — a run
//     finds none anywhere else): a driver over the lowered program of
//     package plan (the same form the native backend runs) that executes it
//     elementwise over per-processor memories with validity tracking. It
//     proves a communication placement correct (a stale read aborts the
//     run) and produces exact per-processor time and message statistics
//     under the machine cost model. What the driver adds to the lowered
//     form is what makes it a simulator: the rendezvous of its worker
//     shards, evaluation of replicated work on every processor of a
//     shard's range, and the ledger charges. The processors are sharded
//     over a pool of worker goroutines on contiguous ranges (see
//     parallel.go); results are bit-identical to a single-shard run
//     regardless of worker count.
//
//   - Estimate, an analytic walker that computes the same per-processor
//     CPU/network time split without touching data, so the paper's
//     problem sizes (up to 325³ gravity grids) are simulated in
//     microseconds.
//
// Both engines consume a placement Result from package core, so the
// three compiler versions (orig / nored / comb) can be compared on
// identical programs.
package spmd

import (
	"fmt"
	"math"

	"gcao/internal/plan"
	"gcao/internal/runtime"
	"gcao/internal/source"
)

// RunResult is the outcome of a functional simulation. Mem and Scalars
// belong to the engine that ran it: they are valid until that engine's
// next Run, which for a result of RunPooled means until Release.
type RunResult struct {
	Ledger  *runtime.Ledger
	Mem     *runtime.Memory
	Scalars map[string]float64
	eng     *Engine
}

// Release hands the engine of a RunPooled result, and with it Mem and
// Scalars, back to the pool it came from. It is a no-op on any other
// result and on a second call; a result never released keeps its engine.
func (r *RunResult) Release() {
	if r.eng != nil && r.eng.home != nil {
		r.eng.home.Put(r.eng)
	}
	r.eng = nil
}

// differ reports whether two replicated values disagree (NaN agrees
// with NaN).
func differ(a, b float64) bool {
	return a != b && !(math.IsNaN(a) && math.IsNaN(b))
}

// ---------------------------------------------------------------------
// shard: one worker's view of the run

// shard executes the full control flow for the contiguous processor
// range [lo, hi). The control state (loop variables, scalars) is
// replicated per shard in one frame; memory and ledger writes stay
// inside the range except at phaser rendezvous points.
type shard struct {
	eng    *Engine
	idx    int
	lo, hi int
	// fr is the shard's program state. fr.P, the processor whose view an
	// evaluation takes, moves over the range.
	fr *plan.Frame
	// at is the source position of the construct being executed, for
	// positioning errors.
	at source.Pos
	// nest is set while the shard runs a pure owner-computes nest, one
	// processor of its range at a time.
	nest bool
	led  runtime.LedgerView
	// sumCounts[i] is, per processor, how many elements of the executing
	// statement's i-th distributed SUM the processor owns: its share of
	// the reduction's flops.
	sumCounts [][]int
	// target holds the index of the executing statement's target, which
	// every processor of the range tests against its local box.
	target []int
}

// evalErr returns the frame's pending evaluation error, positioned.
func (sh *shard) evalErr() error {
	return fmt.Errorf("spmd: processor %d at %s: %w", sh.fr.P, sh.at, sh.fr.Err)
}

// Loop runs a loop. Nothing in a pure owner-computes nest
// synchronizes or is seen by another processor before the nest ends, so
// the shard runs such a nest whole for one processor of its range after
// the other — each under its own loop bounds, as the native backend's
// processors do — instead of testing ownership per element for all of
// them at once.
func (sh *shard) Loop(lp *plan.Loop) error {
	if err := sh.Comm(lp.Pre); err != nil {
		return err
	}
	if lp.Nest == nil {
		return sh.iterate(lp)
	}
	sh.nest = true
	for p := sh.lo; p < sh.hi; p++ {
		sh.fr.P = p
		if err := sh.iterate(lp); err != nil {
			return err
		}
	}
	sh.nest = false
	return nil
}

// iterate runs the iterations of a loop that fall to fr.P (all of them
// outside a nest), in the order of steps plan.Loop.Run fixes for both
// backends.
func (sh *shard) iterate(lp *plan.Loop) error {
	sh.at = lp.Src.Do.Pos
	if err := lp.Run(sh.fr, sh); err != nil {
		return err
	}
	if sh.fr.Err != nil {
		return sh.evalErr()
	}
	return nil
}

// Charge charges a box that ran whole as the walk charges it — per
// iteration point, per statement — so every clock adds up in one order.
func (sh *shard) Charge(lp *plan.Loop, points int) {
	for ; points > 0; points-- {
		for _, st := range lp.Box.Row {
			sh.led.Compute(sh.fr.P, st.Flops)
		}
	}
}

// ---------------------------------------------------------------------
// statement execution

// eval evaluates a statement's right-hand side from processor p's view
// and returns the value with what the evaluation costs p: the
// statement's own flops, one per element p owns of each distributed SUM
// (its partial sum), and one per element of every SUM evaluated inline.
// The caller checks the frame's error.
func (sh *shard) eval(p int, st *plan.Stmt) (v float64, flops int) {
	fr := sh.fr
	fr.P, fr.SumFlops = p, 0
	v = st.RHS.Eval(fr)
	flops = st.Flops + fr.SumFlops
	for i := range st.Sums {
		flops += sh.sumCounts[i][p]
	}
	return v, flops
}

// evalRange evaluates a replicated statement on each processor of the
// shard's range, verifying intra-shard agreement and charging each
// processor.
func (sh *shard) evalRange(st *plan.Stmt) (float64, error) {
	var v0 float64
	for p := sh.lo; p < sh.hi; p++ {
		v, flops := sh.eval(p, st)
		if sh.fr.Err != nil {
			return 0, sh.evalErr()
		}
		if p == sh.lo {
			v0 = v
		} else if differ(v, v0) {
			return 0, fmt.Errorf("spmd: replicated computation diverged: %g vs %g", v0, v)
		}
		sh.led.Compute(p, flops)
	}
	return v0, nil
}

// runSums computes the distributed SUMs of a statement or condition
// from the owners' values — once for the shard's whole range, the total
// does not depend on the processor — leaving the totals where the
// expression reads them. Only called while every shard is quiescent.
func (sh *shard) runSums(sums []plan.Sum) {
	for i := range sums {
		sec := sums[i].Section(sh.fr)
		if sh.fr.Err != nil {
			return
		}
		sh.fr.Sums[sums[i].Slot] = sh.fr.View(sums[i].Lay).SumSection(sec, sh.fr.Scratch, sh.sumCounts[i])
	}
}

func (sh *shard) Stmt(st *plan.Stmt) error {
	fr := sh.fr
	sh.at = st.Src.Assign.Pos
	if sh.nest {
		return sh.execOwn(st)
	}
	if len(st.Sums) > 0 || (st.LHS != nil && st.LHS.Lay.Dist == nil) {
		return sh.execSyncStmt(st)
	}

	if st.LHS == nil {
		// Scalar target: every processor computes the replicated value;
		// this shard evaluates its range (the value is processor-
		// independent, cross-shard agreement is checked at the next
		// rendezvous).
		v, err := sh.evalRange(st)
		if err != nil {
			return err
		}
		fr.Reals[st.Scalar], fr.Set[st.Scalar] = v, true
		return nil
	}

	// Owner-computes on a distributed array: the owner, if it is in the
	// range, evaluates and stores; every other processor of the range
	// loses its copy.
	am, idx := fr.View(st.LHS.Lay), st.LHS.Index(fr, sh.target)
	if fr.Err != nil {
		return sh.evalErr()
	}
	owner := am.Owner(idx)
	if owner >= sh.lo && owner < sh.hi {
		off, _ := am.Local(owner, idx)
		v, flops := sh.eval(owner, st)
		if fr.Err != nil {
			return sh.evalErr()
		}
		am.StoreOwner(off, owner, v)
		sh.led.Compute(owner, flops)
	}
	am.InvalidateRange(idx, owner, sh.lo, sh.hi)
	return nil
}

// execOwn executes a statement of a pure nest for processor fr.P
// alone. An unguarded statement runs only on iterations the processor
// owns; the nest's exit settles the validity of everything it skipped.
func (sh *shard) execOwn(st *plan.Stmt) error {
	fr := sh.fr
	p, am := fr.P, fr.View(st.LHS.Lay)
	if st.Guard {
		if idx := st.LHS.Index(fr, sh.target); am.Owner(idx) != p {
			am.InvalidateBox(p, idx, idx)
			return nil
		}
	}
	off, _ := st.LHS.Offset(fr, p)
	v, flops := sh.eval(p, st)
	if fr.Err != nil {
		return sh.evalErr()
	}
	am.StoreOwner(off, p, v)
	sh.led.Compute(p, flops)
	return nil
}

// execSyncStmt executes a statement that needs a rendezvous: either
// its RHS sums a distributed array (reading owner rows across shard
// ranges, so all shards must quiesce first) or its LHS is a
// replicated array (single shared row, written once by the leader).
func (sh *shard) execSyncStmt(st *plan.Stmt) error {
	eng, fr := sh.eng, sh.fr

	// Rendezvous 1: quiesce. After this point no shard mutates memory
	// until rendezvous 2, so cross-range owner reads are safe.
	if err := eng.ph.await(token{kind: tkStmtA, a: st.Src.ID}, nil); err != nil {
		return err
	}

	var (
		off, owner int
		idx        []int
		v          float64
		has        bool
		serr       error
	)
	if st.LHS != nil {
		if idx = st.LHS.Index(fr, sh.target); fr.Err == nil {
			owner = st.LHS.Lay.Owner(idx)
			off, _ = st.LHS.Lay.Local(owner, idx)
		}
	}
	switch {
	case fr.Err != nil:
		serr = sh.evalErr()
	case st.LHS != nil && st.LHS.Lay.Dist != nil:
		// Owner-computes: only the owner's shard evaluates.
		if owner >= sh.lo && owner < sh.hi {
			sh.runSums(st.Sums)
			var flops int
			v, flops = sh.eval(owner, st)
			if has = fr.Err == nil; has {
				sh.led.Compute(owner, flops)
			} else {
				serr = sh.evalErr()
			}
		}
	default:
		// Scalar or replicated-array target: the value is replicated;
		// this shard evaluates and charges its range.
		sh.runSums(st.Sums)
		v, serr = sh.evalRange(st)
		has = serr == nil
	}
	eng.syncVals[sh.idx], eng.syncHas[sh.idx], eng.shardErrs[sh.idx] = v, has, serr

	// Rendezvous 2: the leader validates agreement and performs the
	// single shared write.
	err := eng.ph.await(token{kind: tkStmtB, a: st.Src.ID}, func() error {
		if err := eng.firstShardError(); err != nil {
			return err
		}
		var v0 float64
		have := false
		for i, has := range eng.syncHas {
			if !has {
				continue
			}
			if v := eng.syncVals[i]; !have {
				v0, have = v, true
			} else if differ(v, v0) {
				return fmt.Errorf("spmd: replicated computation diverged: %g vs %g", v0, v)
			}
		}
		eng.syncResult = v0
		if st.LHS != nil {
			if !have {
				return fmt.Errorf("spmd: no shard computed %s", st.LHS.Lay.Name)
			}
			fr.View(st.LHS.Lay).StoreOwner(off, owner, v0)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if st.LHS == nil {
		fr.Reals[st.Scalar], fr.Set[st.Scalar] = eng.syncResult, true
	} else {
		fr.View(st.LHS.Lay).InvalidateRange(idx, owner, sh.lo, sh.hi)
	}
	return nil
}

// If takes a branch. Scalar-only conditions are evaluated locally
// (every shard computes the identical value); conditions reading
// distributed data rendezvous so the leader can evaluate processor 0's
// view while all shards are quiescent. Every processor is charged the
// evaluation of the replicated condition.
func (sh *shard) If(n *plan.If) error {
	eng, fr := sh.eng, sh.fr
	sh.at = n.Src.Branch.Pos
	fr.P = 0
	var taken bool
	if !n.Sync {
		taken = n.Cond.Eval(fr) != 0
		if fr.Err != nil {
			return sh.evalErr()
		}
	} else {
		err := eng.ph.await(token{kind: tkCond, a: n.Src.ID}, func() error {
			sh.runSums(n.Sums)
			eng.condVal = n.Cond.Eval(fr) != 0
			if fr.Err != nil {
				return sh.evalErr()
			}
			return nil
		})
		if err != nil {
			return err
		}
		taken = eng.condVal
	}
	for p := sh.lo; p < sh.hi; p++ {
		sh.led.Compute(p, 1)
	}
	if taken {
		return plan.Exec(n.Then, sh)
	}
	return plan.Exec(n.Else, sh)
}
