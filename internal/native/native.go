// Package native executes a placed program as real concurrent
// goroutines — one per logical processor — instead of simulating it
// under the BSP cost model. Each goroutine owns its processor's plane of
// every distributed array, over its local box (the same per-processor
// memory image package runtime gives the simulator), and the placed
// communication groups are
// realized as actual channel transfers: ghost-strip exchanges as
// neighbour sends with packed validity bitmaps, broadcasts, gathers
// and distributed SUMs as binomial-tree collectives rooted at
// processor 0 (log-P critical path), with every payload packed into a
// ring of slices its sender owns so the fabric allocates nothing in
// steady state.
//
// The package is a driver over the lowered program of package plan
// (plan.Lower): control flow, expression evaluation, subscripts and
// per-processor loop bounds are the lowered form's; what lives here is
// what a backend has to supply — moving data, combining SUMs, the
// barriers around shared rows — and the engine around it.
//
// The backend is built to be bit-for-bit equivalent to the simulator
// (spmd.RunParallel): both run the same plan.Program, every
// floating-point operation happens in the same order on the same values,
// and Diff enforces the equivalence — values and validity planes — for
// every paper benchmark × compiler version × processor count. The
// program's Listing is the contract between the two: the operations a
// native run performs are exactly the COMM pseudo-calls it prints, and
// Stats.Ops counts them under the listing's vocabulary (exchange,
// broadcast, gather, global-sum).
//
// Determinism argument (see DESIGN.md §13): each processor's state —
// its array rows, validity planes and frame (loop variables, scalars)
// — is written only by its own goroutine outside of barriers, and
// evolves as a pure function of program order plus the messages it
// receives. Message contents are pure functions of the senders' state
// at matched program points, tree hops move bits without arithmetic,
// and every collective combines operands in a fixed section order at
// the root only. By induction the whole run is a deterministic
// function of the placement, independent of goroutine scheduling;
// since the simulator computes the same function (same plan, same
// evaluation order, same combine order), the final states agree
// bitwise.
package native

import (
	"fmt"
	"maps"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"gcao/internal/core"
	"gcao/internal/heapsize"
	"gcao/internal/native/prof"
	"gcao/internal/obs"
	"gcao/internal/plan"
	"gcao/internal/runtime"
	"gcao/internal/source"
)

// Stats summarizes one native run. The record is declared in package
// prof, the leaf both this package and obs import, so every sink — the
// registry, gcaod's response — takes it as it is.
type Stats = prof.RunStats

// RunResult is the outcome of a native execution: the distributed
// memory image (owner rows hold the canonical values), the replicated
// scalar state, and the run statistics. Mem, Scalars and Stats.Ops belong
// to the engine that ran it: they are valid until that engine's next Run,
// which for a result of RunPooled — whose Stats.Ops is the result's own —
// means until Release.
type RunResult struct {
	Mem     *runtime.Memory
	Scalars map[string]float64
	Stats   Stats
	// Profile is the folded runtime profile when the engine ran with
	// profiling enabled (see Engine.EnableProfiling), nil otherwise.
	Profile *prof.NativeProfile
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

// maxProcs returns the largest logical processor count Run accepts
// under the oversubscription policy: up to 256 goroutines per
// available core (and never fewer than 1024 total) run multiplexed on
// the Go scheduler — every native operation is a blocking channel
// operation, never a poll, so progress is guaranteed at any GOMAXPROCS,
// including P=64 on a single core; the one loop that does not block, the
// reaper of a failed run, yields after every sweep and ends with the run
// (see comm.go). Beyond the clamp a run is refused: that many parked
// goroutines signals a misconfigured grid, not a bigger machine. It is
// also the most runners the process keeps (runner.go): processors run on
// parked runners, and a run starts none while enough of them are idle.
func maxProcs() int {
	n := goruntime.GOMAXPROCS(0) * 256
	if n < 1024 {
		n = 1024
	}
	return n
}

// RunPooled runs a placement's lowered program on its processors, on an
// idle engine from pool, which holds engines of this program only, or
// else on a new one whose home the pool becomes: Release, or a failed
// run, puts it there. Given a recorder, the run is profiled, as a
// simulator run is: it runs in a "native:<version>" span of rec, with the
// runtime profiler armed, and leaves its folded profile on rec and in
// RunResult.Profile.
func RunPooled(pool *sync.Pool, prog *plan.Program, rec *obs.Recorder) (*RunResult, error) {
	defer rec.Start("native:" + prog.Plan.Res.Version.String())()
	eng, _ := pool.Get().(*Engine)
	if eng == nil {
		var err error
		if eng, err = newEngine(prog, prog.Plan.Layout.P); err != nil {
			return nil, err
		}
		eng.home = pool
	}
	if rec != nil {
		eng.EnableProfiling(0)
	} else {
		eng.DisableProfiling()
	}
	out, err := eng.Run()
	if err != nil {
		pool.Put(eng)
		return nil, err
	}
	out.Stats.Ops = maps.Clone(out.Stats.Ops) // the engine's next run clears its own
	if rec != nil {
		rec.SetNativeProfile(out.Profile)
	}
	return out, nil
}

// Engine is a prepared native execution: the memory image, the channel
// fabric and every per-processor scratch, built once around a lowered
// program that may be shared with other engines. Run resets the memory
// image and replays the program, so repeated runs measure steady-state
// execution — the pairs' message buffers and the scratches survive
// between runs and the fabric allocates nothing after the first. An
// Engine is not safe for concurrent Runs, and what a Run returns of it —
// memory image, scalars, operation counts — is overwritten by the next. A
// failed run leaves the engine usable: it ends with every processor back
// on a parked runner or gone and the channels drained, and the next Run
// clears the error. Processors run on parked runners, process-wide
// goroutines that outlive the run (see dispatch): a warm run starts none.
type Engine struct {
	prog  *plan.Program
	mem   *runtime.Memory
	procs int
	ps    []*proc
	sched plan.Schedules // every processor's exchanges
	ran   bool
	home  *sync.Pool // where Release puts the engine; nil: nowhere
	// scalars is the replicated scalar state of the last run, ops its
	// operation counts by name: refilled from processor 0's.
	scalars map[string]float64
	ops     map[string]int64

	// profStart anchors profiler timestamps (set per Run); sites is
	// the placement-site table indexed by group ID, built when
	// profiling is first enabled, ringSize what the kept rings were
	// asked to hold.
	profStart time.Time
	sites     []string
	ringSize  int

	// link[dst*procs+src] is the directed pair src→dst (pair), nil but
	// for the pairs the protocol uses (binomial-tree edges and the
	// exchanges' neighbours), so the channels and rings stay O(P·rank) per
	// grid and only the table is P²; links holds the pairs themselves.
	link  []*link
	links []link

	// The failure protocol (see fail): the first error, the flag every
	// channel operation is followed by a load of, the count of processors
	// that have not left the run, and what Run waits for.
	errMu   sync.Mutex
	errVal  error
	failed  atomic.Bool
	running atomic.Int32
	wg      sync.WaitGroup
}

// NewEngine prepares a native execution of the placement on procs
// goroutines, on a lowering of its own.
func NewEngine(res *core.Result, procs int) (*Engine, error) {
	return newEngine(plan.Lower(res), procs)
}

// newEngine builds what an engine owns around a program it shares with
// every other engine of the placement: a memory image under its layout,
// the channel fabric (tree and grid-neighbour pairs), and every processor's
// frame and scratch, sized so the hot paths allocate nothing.
func newEngine(prog *plan.Program, procs int) (*Engine, error) {
	if got := prog.Plan.Layout.P; got != procs {
		return nil, fmt.Errorf("native: unit compiled for %d processors, run requested %d", got, procs)
	}
	if max := maxProcs(); procs > max {
		return nil, fmt.Errorf("native: %d processors exceeds the oversubscription clamp of %d (256×GOMAXPROCS, min 1024)", procs, max)
	}
	eng := &Engine{
		prog:    prog,
		mem:     prog.Plan.Layout.NewMemory(),
		procs:   procs,
		sched:   prog.NewSchedules(true),
		scalars: map[string]float64{},
		ops:     map[string]int64{},
	}
	eng.connectFabric()

	// Every processor's state, target index and children's payloads are
	// carved from one slab per element type, each processor's share in
	// whole cache lines so that neighbours write none in common; the root's
	// gather-assembly scratch — only it carves per-processor streams out of
	// child buffers — closes the slabs.
	rank, kids := prog.Plan.Layout.MaxRank, 0
	for p := 1; p < procs; p++ {
		kids += heapsize.Lines[[]float64](len(prog.Plan.Tree.Children[p]))
	}
	ps := make([]proc, procs)
	ints := make([]int, procs*heapsize.Lines[int](rank)+heapsize.Lines[int](2*procs))
	payloads := make([][]float64, kids+heapsize.Lines[[]float64](procs))
	eng.ps = make([]*proc, procs)
	for p := range ps {
		fr, err := prog.NewFrame(p, eng.mem)
		if err != nil {
			return nil, err
		}
		pc := &ps[p]
		pc.eng, pc.p, pc.fr = eng, p, fr
		pc.target = heapsize.Take(&ints, heapsize.Lines[int](rank))[:rank:rank]
		if p > 0 {
			k := len(prog.Plan.Tree.Children[p])
			pc.kids = heapsize.Take(&payloads, heapsize.Lines[[]float64](k))[:k:k]
		}
		eng.ps[p] = pc
	}
	root := eng.ps[0]
	root.cnt, root.pos, root.streams = heapsize.Take(&ints, procs), heapsize.Take(&ints, procs), heapsize.Take(&payloads, procs)
	return eng, nil
}

// EnableProfiling arms the runtime profiler: every processor records
// into an event ring that grows to at least eventsPerProc entries (<= 0
// selects prof.DefaultRingSize) and subsequent Runs fold the rings into
// RunResult.Profile. A ring is built when its processor first needs one
// and kept, as large as the runs made it, while the profiler is
// disarmed — a warm profiled run records without allocating. Superstep
// indices in the profile follow group execution order, matching the
// simulator's attr.Step indices; the site table is the placement's
// stable SiteIDs.
func (eng *Engine) EnableProfiling(eventsPerProc int) {
	if eng.sites == nil {
		groups := eng.prog.Plan.Res.Groups
		eng.sites = make([]string, len(groups))
		for _, g := range groups {
			eng.sites[g.ID] = g.SiteID()
		}
	}
	for _, pc := range eng.ps {
		if pc.kept == nil || eng.ringSize != eventsPerProc {
			pc.kept = prof.NewRing(eventsPerProc)
		}
		pc.ring = pc.kept
	}
	eng.ringSize = eventsPerProc
}

// DisableProfiling disarms the profiler; later Runs record nothing and
// pay nothing (the nil-ring check is the only residue on hot paths).
func (eng *Engine) DisableProfiling() {
	for _, pc := range eng.ps {
		pc.ring = nil
	}
}

// Run executes the prepared program once. The first call initializes,
// later calls reset the memory image and per-processor state first —
// message buffers and scratches are reused, so steady-state runs do
// not allocate. Processor 0 runs on the caller's goroutine and the others
// on parked runners, so a run starts no goroutine while enough of them
// are idle. The returned RunResult shares the engine's memory image,
// scalar map and operation counts; it is valid until the next Run.
func (eng *Engine) Run() (*RunResult, error) {
	eng.errVal = nil
	eng.failed.Store(false)
	if eng.ran {
		eng.mem.Reset()
	}
	eng.ran = true
	for i := range eng.links {
		eng.links[i].next = 0
	}
	for _, pc := range eng.ps {
		if err := pc.fr.Reset(eng.mem); err != nil {
			return nil, err
		}
		pc.ops = [len(pc.ops)]int64{}
		pc.msgs, pc.bytes, pc.wire, pc.hops, pc.allocBytes = 0, 0, 0, 0, 0
		pc.colls, pc.barriers = 0, 0
		pc.nextStep = 0
		if pc.ring != nil {
			pc.ring.Reset()
			pc.evStep, pc.evSite = -1, -1
			pc.evSend, pc.evRecv = prof.PhaseSend, prof.PhaseTreeWait
			pc.endNS = 0
		}
	}

	start := time.Now()
	eng.profStart = start
	eng.running.Store(int32(eng.procs))
	eng.wg.Add(eng.procs - 1)
	for _, pc := range eng.ps[1:] {
		dispatch(pc)
	}
	eng.ps[0].main()
	eng.wg.Wait() // the processors and, after a failure, the reaper
	if err := eng.err(); err != nil {
		return nil, err
	}

	st := Stats{
		Procs:          eng.procs,
		Collectives:    eng.ps[0].colls,
		Barriers:       eng.ps[0].barriers,
		Ops:            eng.ops,
		ElapsedSeconds: time.Since(start).Seconds(),
	}
	clear(eng.ops)
	for k, n := range eng.ps[0].ops {
		if n > 0 {
			eng.ops[plan.OpName(core.CommKind(k))] += n
		}
	}
	for _, pc := range eng.ps {
		st.Messages += pc.msgs
		st.Bytes += pc.bytes
		st.WireBytes += pc.wire
		st.Hops += pc.hops
		st.AllocBytes += pc.allocBytes
	}
	eng.prog.Scalars(eng.ps[0].fr, eng.scalars)
	out := &RunResult{Mem: eng.mem, Scalars: eng.scalars, Stats: st, eng: eng}
	if eng.ps[0].ring != nil {
		out.Profile = eng.fold(int64(st.ElapsedSeconds * 1e9))
	}
	return out, nil
}

// fold folds the processors' event rings and finish marks into a
// profile over wallNS nanoseconds, or up to the last finish mark if that
// is later.
func (eng *Engine) fold(wallNS int64) *prof.NativeProfile {
	rings := make([]*prof.Ring, eng.procs)
	ends := make([]int64, eng.procs)
	for p, pc := range eng.ps {
		rings[p], ends[p] = pc.ring, pc.endNS
		wallNS = max(wallNS, pc.endNS)
	}
	return prof.Fold(eng.sites, rings, ends, wallNS)
}

// link is one directed pair: the channel that carries its messages and
// the ring of payload slices they are packed into, owned by the sender.
// Message k is packed into slot k mod 3, counted from 0 in every run, so
// a repeat run finds every slot as large as it needs whatever the timing
// was. Capacity 1 lets the sender run one message ahead and is what makes
// three slots enough (comm.go gives the argument); a nil barrier token
// takes no slot, it only puts more channel operations between two tenants
// of one.
type link struct {
	ch   chan []float64
	slot [3][]float64
	next int
}

// connectFabric wires the pairs the protocol can use: the binomial-tree
// edges (collectives, barriers, condition broadcasts) and the exchanges'
// pairs (CommOp.Neighbors). A first pass marks them in the P×P table, a
// second carves them from one slab in table order; only their channels
// are allocated one by one.
func (eng *Engine) connectFabric() {
	P := eng.procs
	eng.link = make([]*link, P*P)
	n := 0
	mark := func(dst, src int) {
		if dst != src && eng.link[dst*P+src] == nil {
			eng.link[dst*P+src] = &unwired
			n++
		}
	}
	for p := 1; p < P; p++ {
		parent := eng.prog.Plan.Tree.Parent[p]
		mark(p, parent)
		mark(parent, p)
	}
	for _, op := range eng.prog.Exchanges {
		for p := 0; p < P; p++ {
			if dst, _ := op.Neighbors(p); dst >= 0 {
				mark(dst, p)
			}
		}
	}
	eng.links = make([]link, 0, n)
	for i, l := range eng.link {
		if l != nil {
			eng.links = append(eng.links, link{ch: make(chan []float64, 1)})
			eng.link[i] = &eng.links[len(eng.links)-1]
		}
	}
}

// unwired marks a pair connectFabric has yet to carve.
var unwired link

// pair returns the directed pair src→dst, nil when the protocol uses none.
func (eng *Engine) pair(dst, src int) *link { return eng.link[dst*eng.procs+src] }

// fail is the one way a run stops early: it records the first error,
// sets the flag and starts the reaper. Every send and receive is a plain
// channel operation followed by a load of the flag, so a processor
// that is running finds out at its next one; the reaper is for those that
// are parked.
func (eng *Engine) fail(err error) {
	eng.errMu.Lock()
	first := eng.errVal == nil
	if first {
		eng.errVal = err
	}
	eng.errMu.Unlock()
	if first {
		eng.failed.Store(true)
		eng.wg.Add(1)
		go eng.reap()
	}
}

func (eng *Engine) err() error {
	eng.errMu.Lock()
	defer eng.errMu.Unlock()
	return eng.errVal
}

// reap sweeps the pairs until the last processor has left the run: a
// non-blocking receive lets a sender parked on a full channel complete, a
// non-blocking send of nil wakes a receiver parked on an empty one, and
// whoever a sweep releases reads the flag before it touches what it got
// (comm.go gives the termination argument). The last sweep, with nobody
// left to send, only receives, and leaves the channels drained for the
// next Run.
func (eng *Engine) reap() {
	defer eng.wg.Done()
	for {
		left := eng.running.Load() == 0
		for i := range eng.links {
			l := &eng.links[i]
			select {
			case <-l.ch:
			default:
			}
			if !left {
				select {
				case l.ch <- nil:
				default:
				}
			}
		}
		if left {
			return
		}
		goruntime.Gosched()
	}
}

// ---------------------------------------------------------------------
// proc: one logical processor's goroutine state

// proc is one processor's state padded to whole cache lines: newEngine
// carves every processor's from one slab.
type proc struct {
	procState
	_ [(64 - unsafe.Sizeof(procState{})%64) % 64]byte // whole cache lines (newEngine)
}

// procState is what a proc holds.
type procState struct {
	eng *Engine
	p   int
	// fr holds the processor's replicated program state: loop
	// variables, scalars, SUM totals and the first evaluation error.
	fr *plan.Frame
	// at is the source position of the construct being executed, for
	// positioning errors.
	at source.Pos

	// Reusable scratch, sized once at engine setup so the hot paths
	// allocate nothing: the packed contribution and assembled-section
	// buffers, the shift validity bitmap, the children's payloads a
	// gather holds while it sizes its up-edge slot, and — root only — the
	// gather stream-carving scratch. The bulk memory operations use the
	// frame's Scratch; target holds the index of a guarded statement's
	// target.
	minebuf []float64
	fullbuf []float64
	bitbuf  runtime.Bits
	target  []int
	kids    [][]float64 // non-root: one gather's child payloads
	cnt     []int       // root: per-proc element counts of one gather
	pos     []int       // root: per-proc stream positions
	streams [][]float64 // root: per-proc operand streams

	msgs, bytes     int64
	wire, hops      int64
	allocBytes      int64
	colls, barriers int64
	ops             [core.KindGeneral + 1]int64 // executed groups by kind

	// Profiler state. ring is nil when profiling is off — every
	// recording site guards on that, so the disabled path costs one
	// predictable branch. nextStep counts executed communication
	// groups (the superstep index, matching attr.Step order);
	// evStep/evSite/evSend/evRecv are the attribution context the
	// comm primitives stamp onto events. Distributed-SUM gather legs
	// run at the SUM statement, before their global-sum group's
	// position assigns a step index, so they record with
	// prof.PendingStep and the group patches them (this goroutine's
	// own ring — single writer). endNS is the goroutine's finish
	// mark, nanoseconds since run start. kept is the processor's ring
	// whether armed or not.
	ring, kept     *prof.Ring
	nextStep       int32
	evStep, evSite int32
	evSend, evRecv prof.Phase
	endNS          int64
}

// nowNS is the profiler clock: nanoseconds since the run started.
func (pc *proc) nowNS() int64 {
	return int64(time.Since(pc.eng.profStart))
}

// main runs the program on this processor. Whatever stops it — an
// evaluation error, a protocol error, a panic under it — becomes the
// engine's error, so the peers blocked on this processor unwind and
// the caller gets a value, not a crash. Processor 0 runs it on Run's
// goroutine, the others on runners (dispatch), which mark them done for
// Run to wait for.
func (pc *proc) main() {
	defer func() {
		if r := recover(); r != nil {
			pc.eng.fail(pc.errorAt(fmt.Errorf("panic: %v", r)))
		}
		if pc.ring != nil {
			pc.endNS = pc.nowNS()
		}
		pc.eng.running.Add(-1)
	}()
	if err := plan.Exec(pc.eng.prog.Body, pc); err != nil {
		pc.eng.fail(err)
	}
}

// errorAt positions an error at this processor and the construct it
// was executing.
func (pc *proc) errorAt(err error) error {
	return fmt.Errorf("native: processor %d at %s: %w", pc.p, pc.at, err)
}

// evalErr returns the frame's pending evaluation error, positioned.
func (pc *proc) evalErr() error {
	return pc.errorAt(pc.fr.Err)
}

// Loop runs this processor's iterations of a loop, in the order of
// steps plan.Loop.Run fixes for both backends: on the root of a pure
// owner-computes nest the subscript ranges are verified once on entry and
// the validity planes settled once on exit, in place of the per-element
// tests and per-element clearing of a guarded walk.
func (pc *proc) Loop(lp *plan.Loop) error {
	if err := pc.Comm(lp.Pre); err != nil {
		return err
	}
	pc.at = lp.Src.Do.Pos
	if err := lp.Run(pc.fr, pc); err != nil {
		return err
	}
	if pc.fr.Err != nil {
		return pc.evalErr()
	}
	return nil
}

// Charge is the simulator's: a native run pays a box in time alone.
func (pc *proc) Charge(*plan.Loop, int) {}

// Stmt executes one assignment. Distributed SUMs in the RHS are
// statement-level collectives: every processor sends its gather legs
// here, and the statement settles — the totals descend, it evaluates and
// stores — here too unless lowering deferred that to a global-sum group.
func (pc *proc) Stmt(st *plan.Stmt) error {
	pc.at = st.Src.Assign.Pos
	if err := pc.gatherSums(st.Sums); err != nil {
		return err
	}
	if st.Settle != nil {
		return nil
	}
	return pc.settle(st)
}

// settle is the rest of a statement after its gathers: every processor
// receives the totals, then the statement evaluates and stores.
func (pc *proc) settle(st *plan.Stmt) error {
	fr := pc.fr
	pc.at = st.Src.Assign.Pos
	if err := pc.bcastSums(st.Sums); err != nil {
		return err
	}

	if st.LHS == nil {
		// Scalar target: every processor computes the replicated value
		// locally (determinism makes the copies identical).
		v := st.RHS.Eval(fr)
		if fr.Err != nil {
			return pc.evalErr()
		}
		fr.Reals[st.Scalar], fr.Set[st.Scalar] = v, true
		return nil
	}

	am := fr.View(st.LHS.Lay)
	off, _ := st.LHS.Offset(fr, pc.p)
	if fr.Err != nil {
		return pc.evalErr()
	}

	if am.Dist == nil {
		// Replicated-array store: the single shared row 0 is written by
		// processor 0 alone, inside a pair of barriers that separate
		// the write from every other processor's reads in program
		// order.
		v := st.RHS.Eval(fr)
		if fr.Err != nil {
			return pc.evalErr()
		}
		if err := pc.barrier(); err != nil {
			return err
		}
		if pc.p == 0 {
			am.StoreOwner(off, 0, v) // a replicated array's plane is every processor's
		}
		return pc.barrier()
	}

	// Owner-computes: the owner evaluates from its own rows and stores
	// into its own row; every other processor kills its stale copy, if it
	// holds one, in its own list of valid boxes (same program point, own
	// list only — no cross-processor writes anywhere). An unguarded
	// statement runs only on iterations this processor owns.
	if st.Guard {
		if idx := st.LHS.Index(fr, pc.target); am.Owner(idx) != pc.p {
			am.InvalidateBox(pc.p, idx, idx)
			return nil
		}
	}
	v := st.RHS.Eval(fr)
	if fr.Err != nil {
		return pc.evalErr()
	}
	am.Data[pc.p][off] = v
	return nil
}

// If takes a branch. Conditions over scalar or replicated data are
// evaluated locally (identical on every processor); conditions reading
// distributed data run their SUM collectives, then processor 0
// evaluates its own view and the taken edge descends the broadcast
// tree so control flow cannot diverge.
func (pc *proc) If(n *plan.If) error {
	fr := pc.fr
	pc.at = n.Src.Branch.Pos
	var v float64
	if !n.Sync {
		v = n.Cond.Eval(fr)
	} else {
		if err := pc.gatherSums(n.Sums); err != nil {
			return err
		}
		if err := pc.bcastSums(n.Sums); err != nil {
			return err
		}
		if pc.p == 0 {
			v = n.Cond.Eval(fr)
		}
	}
	if fr.Err != nil {
		return pc.evalErr()
	}
	if n.Sync {
		if pc.ring != nil {
			// Condition agreement happens outside any placed group.
			pc.evStep, pc.evSite = -1, -1
			pc.evSend, pc.evRecv = prof.PhaseTreeWait, prof.PhaseTreeWait
		}
		var err error
		if v, err = pc.bcastValue(v); err != nil {
			return err
		}
	}
	if v != 0 {
		return plan.Exec(n.Then, pc)
	}
	return plan.Exec(n.Else, pc)
}
