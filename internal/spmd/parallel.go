package spmd

// The sharded execution engine. A run is executed by S worker shards
// over contiguous processor ranges; each shard redundantly walks the
// whole lowered program with its own frame of replicated control state
// and performs the per-processor work (evaluation, owner-computes
// stores, validity kills, ghost deliveries) only for its own range. Shards
// meet at a phaser rendezvous exactly where the BSP model requires
// agreement: communication groups (superstep barriers), statements
// that read owner rows across ranges (distributed SUM), shared-row
// writes (replicated arrays), and branch conditions over distributed
// data. The last shard to arrive runs the leader action — absorbing
// the range-scoped ledger views into the master ledger and, at the end
// of a superstep, one receiver-order walk over what the shards delivered
// that charges the ledger, the pair matrix and the h-relation — so every
// master-side mutation has a single writer and a deterministic order,
// making results bit-identical to a single-shard run regardless of
// worker count.

import (
	"fmt"
	"log/slog"
	goruntime "runtime"
	"slices"
	"sync"

	"gcao/internal/core"
	"gcao/internal/heapsize"
	"gcao/internal/machine"
	"gcao/internal/obs"
	"gcao/internal/obs/attr"
	"gcao/internal/plan"
	"gcao/internal/runtime"
	"gcao/internal/section"
)

// DefaultParallelThreshold is the processor count below which a run
// given no shard count stays on a single shard: the rendezvous overhead
// only pays off when enough per-processor work exists between barriers.
const DefaultParallelThreshold = 8

// RunParallel executes the program under the given placement on procs
// processors over workers shards, unprofiled. workers=1 forces the
// sequential path; workers<=0 selects one shard below
// DefaultParallelThreshold processors, else min(GOMAXPROCS, procs). The
// worker count never changes the result bits, only the wall clock. The
// run lowers the placement and builds an engine of its own.
func RunParallel(res *core.Result, m machine.Machine, procs, workers int) (*RunResult, error) {
	eng, err := newEngine(plan.Lower(res), procs, workers)
	if err != nil {
		return nil, err
	}
	return eng.Run(m, nil)
}

// RunPooled runs a placement's lowered program on its processors, under
// the machine model and profiled when rec is non-nil, on an idle engine
// from pool — which holds engines of this program and nothing else — or,
// when there is none, on a new one whose home the pool becomes: the
// result's Release, or the failure of a run, puts the engine there.
func RunPooled(pool *sync.Pool, prog *plan.Program, m machine.Machine, rec *obs.Recorder) (*RunResult, error) {
	defer rec.Start("simulate:" + prog.Plan.Res.Version.String())()
	eng, _ := pool.Get().(*Engine)
	if eng == nil {
		var err error
		if eng, err = newEngine(prog, prog.Plan.Layout.P, 0); err != nil {
			return nil, err
		}
		eng.home = pool
	}
	out, err := eng.Run(m, rec)
	if err != nil {
		pool.Put(eng)
	}
	return out, err
}

// newEngine builds what an engine owns — a memory image under the
// program's layout, the shards with their frames, the schedules and the
// rendezvous scratch — around a program it shares with every other
// engine of the placement. The shards are held by value and their tables
// carved from one slab per element type, each shard's a cache line apart
// from the next one's.
func newEngine(prog *plan.Program, procs, workers int) (*Engine, error) {
	if got := prog.Plan.Layout.P; got != procs {
		return nil, fmt.Errorf("spmd: unit compiled for %d processors, run requested %d", got, procs)
	}
	if workers < 1 {
		workers = 1
		if procs >= DefaultParallelThreshold {
			workers = goruntime.GOMAXPROCS(0)
		}
	}
	workers = min(workers, procs)
	eng := &Engine{
		prog:    prog,
		mem:     prog.Plan.Layout.NewMemory(),
		sched:   prog.NewSchedules(false),
		scalars: map[string]float64{},
		shards:  make([]shard, workers),
	}
	for i := range eng.shards {
		sh := &eng.shards[i]
		*sh = shard{eng: eng, idx: i, lo: i * procs / workers, hi: (i + 1) * procs / workers}
		fr, err := prog.NewFrame(sh.lo, eng.mem)
		if err != nil {
			return nil, err
		}
		sh.fr = fr
	}
	// Per shard: its view's clocks, its target's index and, per SUM, the
	// counts of its processors.
	rank, sums := prog.Plan.Layout.MaxRank, len(eng.shards[0].fr.Sums)
	nFloats, nInts := heapsize.Lines[float64](workers), heapsize.Lines[int](procs)+heapsize.Lines[int](workers)
	for i := range eng.shards {
		nFloats += heapsize.Lines[float64](eng.shards[i].hi - eng.shards[i].lo)
		nInts += heapsize.Lines[int](rank + sums*procs)
	}
	floats, ints, counts := make([]float64, nFloats), make([]int, nInts), make([][]int, workers*sums)
	eng.syncVals = heapsize.TakeLines(&floats, workers)
	eng.recvBytes = heapsize.TakeLines(&ints, procs)
	eng.bcastBytes = heapsize.TakeLines(&ints, workers)
	eng.syncHas, eng.shardErrs = make([]bool, workers), make([]error, workers)
	for i := range eng.shards {
		sh := &eng.shards[i]
		sh.led.CPU = heapsize.TakeLines(&floats, sh.hi-sh.lo)
		own := heapsize.TakeLines(&ints, rank+sums*procs)
		sh.target, sh.sumCounts = heapsize.Take(&own, rank), heapsize.Take(&counts, sums)
		for k := range sh.sumCounts {
			sh.sumCounts[k] = heapsize.Take(&own, procs)
		}
	}
	return eng, nil
}

// Run executes the prepared program once under the machine model,
// profiled when rec is non-nil. From the second run on it first resets
// the memory image, the frames and the rendezvous scratch; every run
// gets a new ledger and a reset phaser. The result shares the engine's
// memory image and scalar map: it is valid until the engine's next Run.
func (eng *Engine) Run(m machine.Machine, rec *obs.Recorder) (*RunResult, error) {
	if eng.ran {
		eng.mem.Reset()
		clear(eng.shardErrs)
	}
	eng.ran = true
	procs := eng.mem.P
	eng.led = runtime.NewLedger(procs, m)
	eng.ph.reset(len(eng.shards))
	eng.prof, eng.idle, eng.attrRun = nil, nil, nil
	if rec != nil {
		eng.prof = obs.NewCommProfile(procs)
		eng.idle = make([]float64, procs)
		eng.attrRun = &attr.Run{Version: eng.prog.Plan.Res.Version.String(), Procs: procs}
		if eng.steps == nil {
			eng.steps = stepTable(eng.prog.Plan.Res.Groups)
		}
	}
	for i := range eng.shards {
		sh := &eng.shards[i]
		if err := sh.fr.Reset(eng.mem); err != nil {
			return nil, err
		}
		sh.fr.P, sh.nest = sh.lo, false
		sh.led = eng.led.View(sh.lo, sh.hi, sh.led.CPU)
	}

	eng.wg.Add(len(eng.shards))
	for i := range eng.shards[1:] {
		go eng.shards[1+i].main()
	}
	eng.shards[0].main()
	eng.wg.Wait()
	if err := eng.ph.error(); err != nil {
		return nil, err
	}
	if eng.prof != nil {
		eng.finishProfile(rec)
	}
	eng.prog.Scalars(eng.shards[0].fr, eng.scalars)
	return &RunResult{Ledger: eng.led, Mem: eng.mem, Scalars: eng.scalars, eng: eng}, nil
}

// main runs one shard to completion: the program walk, then the final
// rendezvous that folds the shard clocks into the master ledger.
// Whatever stops the shard — an evaluation error, a panic under
// it — becomes the phaser's sticky error, so the peers parked at a
// rendezvous unwind and the caller gets a value, not a crash.
func (sh *shard) main() {
	eng := sh.eng
	defer eng.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			eng.ph.fail(fmt.Errorf("spmd: processor range [%d,%d) at %s: panic: %v", sh.lo, sh.hi, sh.at, r))
		}
	}()
	if err := plan.Exec(eng.prog.Body, sh); err != nil {
		eng.ph.fail(err)
		return
	}
	eng.ph.await(token{kind: tkDone}, func() error {
		eng.absorbLedgers()
		if err := eng.checkScalarAgreement(); err != nil {
			return err
		}
		eng.masterBarrier()
		return nil
	})
}

// ---------------------------------------------------------------------
// Engine: a prepared simulation, reusable across runs

// Engine is a prepared simulation of one placement, in the image of
// native.Engine: the memory image, the receivers' exchange schedules, the
// shards with their frames and the rendezvous scratch are built once,
// around a lowered program that may be shared with other engines and is
// never written; the ledger, the phaser and — with a recorder — the
// profile and superstep records are a run's own. An Engine is not safe
// for concurrent Runs. A failed run leaves it usable.
type Engine struct {
	prog    *plan.Program
	mem     *runtime.Memory
	sched   plan.Schedules // receive-only; a shard uses its receivers'
	shards  []shard
	scalars map[string]float64
	ran     bool
	home    *sync.Pool // where Release puts the engine; nil: nowhere
	// steps is the static half of each group's superstep record, indexed
	// by group ID: built by the first profiled run, copied by every
	// execution of the group, never written after.
	steps []attr.Step

	led *runtime.Ledger
	ph  phaser
	wg  sync.WaitGroup // the shards' mains

	// prof and idle are the pair matrices and idle account of this run;
	// attrRun is its superstep stream, one Step appended by the
	// rendezvous-B leader per executed group. All nil without a recorder.
	prof    *obs.CommProfile
	idle    []float64
	attrRun *attr.Run

	// Rendezvous scratch. Each field is written either by the single
	// rendezvous leader while all other shards are parked in the
	// phaser, or by exactly one shard at its own index during a
	// parallel phase; it is read only on the far side of the next
	// rendezvous, whose mutex publishes the writes.
	condVal    bool
	syncVals   []float64
	syncHas    []bool
	syncResult float64
	shardErrs  []error
	// recvBytes[dst] is what the executing shift group delivered to
	// processor dst, written by the shard whose range holds dst.
	recvBytes  []int
	bcastBytes []int
	msgs0      int
	bytes0     int
}

// absorbLedgers folds every shard's range-scoped CPU clocks into the
// master ledger (an idempotent snapshot copy).
func (eng *Engine) absorbLedgers() {
	for i := range eng.shards {
		eng.led.Absorb(&eng.shards[i].led)
	}
}

// masterBarrier synchronizes the master ledger clocks, first crediting
// each processor's wait below the slowest clock to the profile's idle
// account (the ledger itself charges that slack to Net).
func (eng *Engine) masterBarrier() {
	if eng.idle != nil {
		maxT := 0.0
		for p := 0; p < eng.led.P; p++ {
			if t := eng.led.CPU[p] + eng.led.Net[p]; t > maxT {
				maxT = t
			}
		}
		for p := 0; p < eng.led.P; p++ {
			eng.idle[p] += maxT - (eng.led.CPU[p] + eng.led.Net[p])
		}
	}
	eng.led.Barrier()
}

// checkScalarAgreement verifies that the shards' replicated scalars
// have not diverged — the cross-shard completion of the per-range
// agreement check in evalRange.
func (eng *Engine) checkScalarAgreement() error {
	f0 := eng.shards[0].fr
	for i := range eng.shards[1:] {
		sh := &eng.shards[1+i]
		for s, v0 := range f0.Reals {
			if v := sh.fr.Reals[s]; f0.Set[s] && differ(v, v0) {
				return fmt.Errorf("spmd: replicated scalar %q diverged across shards: %g vs %g", eng.prog.Reals[s], v0, v)
			}
		}
	}
	return nil
}

// stepTable builds the static half of every group's superstep record:
// placement site, kind, label, the arrays it moves (sorted) and its
// source statements.
func stepTable(groups []*core.Group) []attr.Step {
	steps := make([]attr.Step, len(groups))
	for i, g := range groups {
		st := attr.Step{
			Site: g.SiteID(), Kind: g.Kind.String(), Sources: g.Sources(),
			Label: fmt.Sprintf("group%d@%s", g.ID, g.Pos),
		}
		for _, e := range g.Entries {
			if !slices.Contains(st.Arrays, e.Array) {
				st.Arrays = append(st.Arrays, e.Array)
			}
		}
		slices.Sort(st.Arrays)
		steps[i] = st
	}
	return steps
}

// firstShardError returns the lowest-indexed shard's recorded error,
// so failure reporting is deterministic (the lowest shard owns the
// lowest processors, matching the sequential engine's first-failing-
// processor order).
func (eng *Engine) firstShardError() error {
	for _, err := range eng.shardErrs {
		if err != nil {
			return err
		}
	}
	return nil
}

// finishProfile fills the per-processor time split, installs the
// profile, and bumps the run counters. The version-prefixed counters
// let several runs (orig vs comb) share one recorder.
func (eng *Engine) finishProfile(rec *obs.Recorder) {
	compute := make([]float64, eng.led.P)
	comm := make([]float64, eng.led.P)
	for p := 0; p < eng.led.P; p++ {
		compute[p] = eng.led.CPU[p]
		comm[p] = eng.led.Net[p] - eng.idle[p]
	}
	eng.prof.ComputeSec = compute
	eng.prof.CommSec = comm
	eng.prof.IdleSec = append([]float64(nil), eng.idle...)
	rec.SetProfile(eng.prof)
	rec.SetAttribution(eng.attrRun)
	version := eng.prog.Plan.Res.Version.String()
	prefix := "spmd." + version + "."
	rec.Add(prefix+"supersteps", int64(len(eng.attrRun.Steps)))
	rec.Add(prefix+"messages", int64(eng.led.DynMessages))
	rec.Add(prefix+"bytes", int64(eng.led.BytesMoved))
	rec.Add(prefix+"barriers", int64(eng.led.Barriers))
	rec.Event(slog.LevelInfo, "simulate.done",
		slog.String("version", version),
		slog.Int("procs", eng.led.P),
		slog.Int("messages", eng.led.DynMessages),
		slog.Int("bytes", eng.led.BytesMoved),
		slog.Int("barriers", eng.led.Barriers))
}

// ---------------------------------------------------------------------
// communication execution (superstep rendezvous)

// Comm executes the communication groups placed at one position.
// Each group is one superstep: rendezvous A quiesces the shards, absorbs
// the shard clocks and runs the barrier; the shards then deliver to the
// receivers in their own ranges concurrently, under their replicated loop
// state; rendezvous B accounts the superstep in one walk over the
// receivers that were sent anything, in receiver order: one ledger
// message and one pair-matrix entry each, and the h-relation. A shift's
// sender is its receiver's neighbour, so that is the (sender, receiver)
// pairs in sorted order: the charge order — and every float accumulation
// — is reproducible.
func (sh *shard) Comm(c *plan.Comm) error {
	if c == nil {
		return nil
	}
	eng := sh.eng
	for i := range c.Ops {
		op := &c.Ops[i]
		g := op.Group
		err := eng.ph.await(token{kind: tkCommA, a: g.ID}, func() error {
			eng.absorbLedgers()
			if err := eng.checkScalarAgreement(); err != nil {
				return err
			}
			eng.masterBarrier()
			eng.msgs0, eng.bytes0 = eng.led.DynMessages, eng.led.BytesMoved
			if g.Kind == core.KindShift {
				// A sender's boxes as the superstep found them: what a
				// shard delivers, no other shard reads.
				for i := range op.Entries {
					eng.mem.Freeze(op.Entries[i].Lay.Slot)
				}
			}
			if g.Kind == core.KindReduce {
				// Functionally the SUM statement computes the value; the
				// group charges one combined message of k partials.
				eng.led.Reduce(len(g.Entries) * 8)
			}
			return nil
		})
		if err != nil {
			return err
		}

		switch g.Kind {
		case core.KindShift:
			// One message per (src,dst) pair for the whole group: the
			// member strips are packed together. This shard delivers
			// those whose receivers lie in its range, from their schedules.
			for dst := sh.lo; dst < sh.hi; dst++ {
				sch, b := eng.sched.At(sh.fr, op, dst), 0
				for _, e := range sch.Ents {
					b += e.Am.CopyValid(sch.Src, dst, section.Section{Dims: e.Ghost}, e.Recv, e.Off, sh.fr.Scratch) * e.Am.Arr.ElemBytes()
				}
				eng.recvBytes[dst] = b
			}
		case core.KindBcast, core.KindGeneral:
			bytes := 0
			for i := range op.Entries {
				if sec, ok := op.Entries[i].Concrete(sh.fr); ok {
					bytes += sh.fr.View(op.Entries[i].Lay).BroadcastRange(sec, sh.lo, sh.hi, sh.fr.Scratch)
				}
			}
			eng.bcastBytes[sh.idx] = bytes
		}

		err = eng.ph.await(token{kind: tkCommB, a: g.ID}, func() error {
			var h int64
			switch g.Kind {
			case core.KindShift:
				// Neighbors is injective, so each processor sends at most
				// one strip and receives at most one: the largest
				// delivery is the h-relation, in and out.
				for dst, b := range eng.recvBytes {
					if b == 0 {
						continue
					}
					_, src := op.Neighbors(dst)
					eng.led.Message(src, dst, b)
					eng.prof.AddPair(src, dst, int64(b))
					h = max(h, int64(b))
				}
			case core.KindBcast, core.KindGeneral:
				// Every shard observed the same full-section payload.
				eng.led.Broadcast(eng.bcastBytes[0])
			}
			if eng.attrRun != nil {
				st := eng.steps[g.ID]
				st.Index = len(eng.attrRun.Steps)
				st.Messages = eng.led.DynMessages - eng.msgs0
				st.Bytes = int64(eng.led.BytesMoved - eng.bytes0)
				if g.Kind != core.KindShift {
					// A collective charges the full payload on every
					// processor: its bytes are its h-relation.
					h = st.Bytes
				}
				st.HIn, st.HOut = h, h
				eng.attrRun.Steps = append(eng.attrRun.Steps, st)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// phaser: the cyclic barrier the shards rendezvous on

// token identifies a rendezvous point; shards arriving at a barrier
// with different tokens have divergent control flow — an interpreter
// invariant violation surfaced as an error rather than a deadlock.
type token struct {
	kind byte
	a    int
}

const (
	tkStmtA byte = iota // sync statement: quiesce before evaluation
	tkStmtB             // sync statement: leader validates and writes
	tkCond              // branch condition over distributed data
	tkCommA             // superstep: barrier + section concretization
	tkCommB             // superstep: merge and charge traffic
	tkDone              // end of program: final barrier and merges
)

// phaser is a sync.Cond-based cyclic barrier with leader actions: the
// last shard to arrive runs the leader function while the others are
// parked, giving every master-side mutation a single writer. Errors
// are sticky — once a shard fails or a leader action errors, every
// current and future await returns the same error, unwinding all
// shards without deadlock.
type phaser struct {
	mu      sync.Mutex
	cond    sync.Cond
	parties int
	arrived int
	gen     uint64
	tok     token
	err     error
}

// reset readies the phaser for a run of parties shards, none of them
// arrived and no error recorded.
func (ph *phaser) reset(parties int) {
	ph.parties, ph.arrived, ph.gen, ph.tok, ph.err = parties, 0, 0, token{}, nil
	ph.cond.L = &ph.mu
}

// await blocks until all parties arrive with the same token, then
// releases them together; the last arriver runs leader (if non-nil)
// first. Returns the phaser's sticky error, if any.
func (ph *phaser) await(t token, leader func() error) error {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if ph.err != nil {
		return ph.err
	}
	if ph.arrived == 0 {
		ph.tok = t
	} else if ph.tok != t {
		ph.err = fmt.Errorf("spmd: shards diverged: rendezvous %v vs %v", ph.tok, t)
		ph.cond.Broadcast()
		return ph.err
	}
	ph.arrived++
	if ph.arrived == ph.parties {
		if leader != nil {
			if err := leader(); err != nil && ph.err == nil {
				ph.err = err
			}
		}
		ph.arrived = 0
		ph.gen++
		ph.cond.Broadcast()
		return ph.err
	}
	gen := ph.gen
	for ph.gen == gen && ph.err == nil {
		ph.cond.Wait()
	}
	return ph.err
}

// fail records a shard's failure outside a rendezvous and wakes every
// parked shard; the first error wins.
func (ph *phaser) fail(err error) {
	ph.mu.Lock()
	if ph.err == nil {
		ph.err = err
	}
	ph.cond.Broadcast()
	ph.mu.Unlock()
}

func (ph *phaser) error() error {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return ph.err
}
