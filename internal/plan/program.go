package plan

import (
	"fmt"
	"math"
	"slices"

	"gcao/internal/ast"
	"gcao/internal/cfg"
	"gcao/internal/core"
	"gcao/internal/heapsize"
	"gcao/internal/runtime"
	"gcao/internal/section"
	"gcao/internal/source"
)

// Program is the lowered, slot-resolved form of a placed program: the
// structured control flow as a tree of nodes, every name resolved to a
// frame slot, every array reference holding its array's layout, every
// communication position and SUM collective an explicit operation. It
// is immutable after Lower, holds no memory image or part of one, and is
// shared by all executors of its placement; everything an execution
// mutates lives in a Frame and in the image the frame is bound to.
//
// A backend is a driver over this form: it walks Body, calls the
// evaluation methods below for integer and real expressions, and
// supplies what differs between backends — how a communication group
// moves data, how a distributed SUM is combined, what a store costs.
type Program struct {
	Plan *Plan
	Body []Node
	// Exchanges lists the shift operations of Body in lowering order.
	Exchanges []*CommOp
	// Ints and Reals name the frame slots: one integer slot per loop
	// variable name, one real slot per declared non-parameter scalar.
	Ints, Reals []string
	// numSums counts the distributed SUMs, what Sum.Slot indexes.
	numSums int
	// memoLen is the length of a frame's memo: every nest's entry key.
	memoLen int
	// The tables a node holds an index into: the SUMs over replicated
	// arrays, and the positioned errors evaluation may record, made once
	// at lowering — what a fail node reports, an unassigned scalar read
	// strictly, an integer division or mod by zero.
	inline []Sum
	errs   []source.Error
	// What one frame needs to run any box: operand stack entries and
	// scratch floats of one statement, array references and leaf operands
	// of one row loop's body, outer loops of one chain.
	rowDepth, rowFloats, rowRefs, rowLeaves, boxLevels int
	// bytes counts what lowering allocated that the Program keeps, beside
	// its Plan: the lowerer's slabs, every chunk whole, the tables above
	// and the error messages.
	bytes int64
}

// Bytes returns what the Program holds beside its placement: its own
// count, its Plan's tables and its array layout.
func (pr *Program) Bytes() int64 { return pr.bytes + pr.Plan.bytes + pr.Plan.Layout.Bytes() }

// Node is one element of the lowered control-flow tree: *Comm, *Stmt,
// *Loop or *If.
type Node interface{ node() }

func (*Comm) node() {}
func (*Stmt) node() {}
func (*Loop) node() {}
func (*If) node()   {}

// Comm is one communication position: the groups placed there, in
// placement order.
type Comm struct {
	Ops []CommOp
}

// CommOp is one placed communication group, with its entries' sections
// lowered to slot form.
type CommOp struct {
	Group *core.Group
	// Entries are the group's entries over distributed arrays (for
	// shifts, only those distributed along the shifted grid dimension);
	// empty for global-sum markers, which move no data themselves.
	Entries []EntrySec
	// Slots lists the integer slots the entries' sections read: a schedule
	// built under them holds while Frame.Unchanged says they have not moved.
	Slots []int
	// Settles, on a global-sum group, lists in source order the statements
	// whose SUMs it holds and that settle here (Stmt.Settle).
	Settles []*Stmt
	xid     int // a shift's index in Program.Exchanges
}

// Neighbors returns the processors p sends its strips to and takes them
// from in a shift, -1 for none: its neighbours on the grid the entries'
// arrays are distributed over (core combines none of different grids).
// Both backends and the native fabric ask this and nothing else.
func (op *CommOp) Neighbors(p int) (dst, src int) {
	if len(op.Entries) == 0 {
		return -1, -1
	}
	m, g := op.Group.Map, op.Entries[0].Lay.Dist.Grid
	return g.Neighbor(p, m.GridDim, -m.Sign), g.Neighbor(p, m.GridDim, m.Sign)
}

// EntrySec is one group entry's communicated section, symbolic in the
// loop variables around the group's position.
type EntrySec struct {
	Lay    *runtime.ArrayLayout
	Lo, Hi []Affine
	Step   []int
	// ShiftDim is the array dimension a shift group moves this entry
	// along, -1 for other kinds.
	ShiftDim int
	// need lists loop-variable slots the section reads from outside
	// their loops: the entry is skipped while any of them is unbound.
	need []int
}

// Concrete evaluates the section under fr, clipped to the declared
// bounds, into the frame's scratch (valid until the next evaluation under
// fr). ok is false while a variable the section depends on has never been
// bound: the entry moves nothing then. Loop variables are replicated, so
// every executor derives the same section.
func (e *EntrySec) Concrete(fr *Frame) (sec section.Section, ok bool) {
	for _, s := range e.need {
		if !fr.Bound[s] {
			return section.Section{}, false
		}
	}
	dst := e.Bounds(fr)
	return section.Section{Dims: dst}.ClipInto(e.Lay.Arr.Lo, e.Lay.Arr.Hi, dst), true
}

// Bounds evaluates the section under fr, unclipped, into the frame's
// scratch.
func (e *EntrySec) Bounds(fr *Frame) []section.Dim {
	dst := fr.dims[:len(e.Lo)]
	for i := range dst {
		dst[i] = section.Dim{Lo: e.Lo[i].Eval(fr), Hi: e.Hi[i].Eval(fr), Step: e.Step[i]}
	}
	return dst
}

// Stmt is one assignment. A backend runs Sums (the statement-level
// collectives, totals into Frame.Sums), then evaluates and stores: into
// Frame.Reals[Scalar] when LHS is nil, else into the array element — on
// the owner only; Guard tells whether ownership still has to be tested per
// execution or the enclosing loop bounds already restrict the executing
// processor to elements it owns. Flops is the right-hand side's
// CountFlops, what one evaluation costs beside its SUM shares. Settle,
// when set, is the global-sum group where the totals descend and the
// statement evaluates and stores; the SUMs gather at the statement.
type Stmt struct {
	Src    *cfg.Stmt
	Flops  int
	Sums   []Sum
	RHS    *Real
	LHS    *ArrayRef
	Scalar int
	Guard  bool
	Settle *CommOp

	reads []*ArrayRef // array reads of the RHS, outside SUM arguments
	loops []*Loop     // enclosing loops, outermost first
	// row is the right-hand side as postfix row ops over the innermost
	// enclosing loop (nil when some operand has no row form).
	row []rowOp
}

// Sum is one SUM call over an array section: a collective of its
// statement or condition when the array is distributed.
type Sum struct {
	Lay *runtime.ArrayLayout
	Pos source.Pos
	Sec SecExpr
	// Slot is the index of the total in Frame.Sums, one per distributed SUM
	// of the program.
	Slot int
	arg  *ast.Ref // the summed reference: a global-sum entry's use
}

// Section evaluates the summed section under fr, into the frame's
// scratch (valid until the next evaluation under fr). A section that
// reaches outside the declared bounds records an error in fr,
// positioned at the call; the caller checks fr.Err before walking it.
func (s *Sum) Section(fr *Frame) section.Section {
	sec := s.Sec.Eval(fr, fr.dims)
	if fr.Err != nil || sec.IsEmpty() {
		return sec
	}
	arr := s.Lay.Arr
	for i, d := range sec.Dims {
		step := max(d.Step, 1)
		if last := d.Lo + (d.Hi-d.Lo)/step*step; d.Lo < arr.Lo[i] || last > arr.Hi[i] {
			fr.fail(rangeError(s.Pos, s.Lay, i, d.Lo, last))
			break
		}
	}
	return sec
}

// If is a two-way branch. A Sync condition reads distributed data: the
// backend runs Sums, evaluates Cond on processor 0's view and makes
// every processor take that edge.
type If struct {
	Src        *cfg.Block
	Sums       []Sum
	Cond       *Real
	Sync       bool
	Then, Else []Node
}

// Loop is a DO loop: Pre holds the groups placed at its preheader
// (executed once, before the bounds are evaluated), Head those at its
// header (once per iteration, before the body).
type Loop struct {
	Src          *cfg.Loop
	Slot         int
	Pre, Head    *Comm
	Lo, Hi, Step IntExpr
	Body         []Node
	// Clamp, on loops of a pure owner-computes nest whose variable
	// subscripts a BLOCK dimension of every statement below, is indexed
	// by processor: the values of the variable for which that processor
	// owns any of those statements' elements (Lo > Hi: none).
	Clamp []Range
	// Nest is set on the root of a pure owner-computes nest.
	Nest *Nest
	// Row, on a row loop — a loop of a pure nest whose iterations may run
	// a statement at a time (see row.go) — lists the body's statements.
	Row []*Stmt
	// Box, on a row loop and on the outermost loop of a box chain — a
	// perfect chain of loops down to a row loop whose whole iteration box
	// may run a statement at a time — is that row loop (the loop itself on
	// a row loop): the driver tries RunBox before walking Body.
	Box *Loop
	// outer is the chain loop directly around (nil on the outermost);
	// boxVars, on the outermost, the depthBits of the chain's loops around
	// the row loop whose variables a leaf of the body reads; refs and
	// leaves count the array references (reads and targets) and leaf
	// operands of Row.
	outer        *Loop
	boxVars      uint64
	refs, leaves int
}

// Range is an inclusive integer interval, empty when Lo > Hi.
type Range struct{ Lo, Hi int }

func (r Range) String() string { return fmt.Sprintf("%d:%d", r.Lo, r.Hi) }

func (r Range) intersect(o Range) Range {
	return Range{Lo: max(r.Lo, o.Lo), Hi: min(r.Hi, o.Hi)}
}

// Begin evaluates the loop's bounds under fr and returns the
// iterations fr.P executes — first, first+step, ... up to last — and
// the value the variable holds after the loop (what walking the full
// range leaves, whatever the clamp). run is false for a zero-trip
// loop, which leaves the variable untouched.
func (lp *Loop) Begin(fr *Frame) (first, last, step, exit int, run bool) {
	lo, hi, step := lp.Lo.Eval(fr), lp.Hi.Eval(fr), lp.Step.Eval(fr)
	if fr.Err != nil {
		return 0, 0, 0, 0, false
	}
	if step == 0 {
		fr.fail(fmt.Errorf("zero loop step at %s", lp.Src.Do.Pos))
		return 0, 0, 0, 0, false
	}
	if (step > 0 && lo > hi) || (step < 0 && lo < hi) {
		return 0, 0, step, 0, false
	}
	fr.Bound[lp.Slot] = true
	exit = lo + ((hi-lo)/step+1)*step
	if lp.Clamp != nil { // step is ±1
		c := lp.Clamp[fr.P]
		if step > 0 {
			lo, hi = max(lo, c.Lo), min(hi, c.Hi)
		} else {
			lo, hi = min(lo, c.Hi), max(hi, c.Lo)
		}
	}
	return lo, hi, step, exit, true
}

// Driver is a backend as the lowered form sees it: how it executes each
// kind of node — a nil Comm is a position without groups, a Loop begins
// with its preheader's — and what it charges for a box RunBox ran whole,
// each statement of lp.Box.Row at points iteration points.
type Driver interface {
	Stmt(*Stmt) error
	Loop(*Loop) error
	Comm(*Comm) error
	If(*If) error
	Charge(lp *Loop, points int)
}

// Exec drives the nodes in order: control state is replicated, so every
// executor reaches the same communication operations in the same order.
func Exec(nodes []Node, d Driver) error {
	for _, n := range nodes {
		var err error
		switch n := n.(type) {
		case *Stmt:
			err = d.Stmt(n)
		case *Loop:
			err = d.Loop(n)
		case *Comm:
			err = d.Comm(n)
		case *If:
			err = d.If(n)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// walk runs the iterations first, first+step, ... last of the loop on the
// tree: the groups at its header once per iteration, before the body.
func (lp *Loop) walk(fr *Frame, d Driver, first, last, step int) error {
	for v := first; (step > 0 && v <= last) || (step < 0 && v >= last); v += step {
		fr.Ints[lp.Slot] = v
		if err := d.Comm(lp.Head); err != nil {
			return err
		}
		if err := Exec(lp.Body, d); err != nil {
			return err
		}
	}
	return nil
}

// Run is one execution of the loop under fr, the one order of its steps
// for every backend: the bounds; on the root of a nest the entry that
// verifies subscript ranges once; the box whole where the loop heads one,
// else — or for the row a Stuck box could not prove — the walk, which
// reports the stale element or failing operand; the exit value; the nest's
// settling of validity. It returns the driver's error and
// leaves an evaluation error in fr.Err.
func (lp *Loop) Run(fr *Frame, d Driver) error {
	first, last, step, exit, run := lp.Begin(fr)
	if run && lp.Nest != nil {
		lp.Nest.Enter(fr)
	}
	if fr.Err != nil || !run {
		return nil
	}
	switch out, points := lp.RunBox(fr); out {
	case NotApplicable:
		if err := lp.walk(fr, d, first, last, step); err != nil {
			return err
		}
	case Done:
		d.Charge(lp, points)
	case Stuck:
		first, last, step, _, _ = lp.Box.Begin(fr)
		if err := lp.Box.walk(fr, d, first, last, step); err != nil {
			return err
		}
		fr.fail(ErrDeclinedRowRan)
		return nil
	}
	fr.Ints[lp.Slot] = exit
	if lp.Nest != nil {
		lp.Nest.Leave(fr)
	}
	return nil
}

// ---------------------------------------------------------------------
// Frame: one executor's mutable state

// Frame is the mutable state of one executor of a Program: the slot
// values, the first evaluation error, evaluation scratch, and the memory
// image the program's array references resolve to. P is the processor
// whose view array reads take and whose clamps loops use.
type Frame struct {
	P int
	// arrays is the bound image's storage, by ArrayLayout.Slot.
	arrays []runtime.ArrayMem
	layout *runtime.Layout
	// Ints holds loop-variable values; Bound marks the slots a loop has
	// set at least once (a variable keeps its exit value after its
	// loop, and reads as unbound before).
	Ints  []int
	Bound []bool
	// Reals holds scalar values; Set marks the assigned ones.
	Reals []float64
	Set   []bool
	// Sums holds the totals of the distributed SUMs, by Sum.Slot: a
	// statement's stay there from its gather until it settles.
	Sums []float64
	// SumFlops counts the elements added up by SUMs over replicated
	// arrays, which evaluate inline. Only a driver that charges flops
	// reads it, and resets it around each evaluation.
	SumFlops int
	// Err is the first error an evaluation hit. Evaluation methods
	// return a zero in its place and keep going; the caller checks Err
	// before using a value.
	Err error
	// inline and errs are the program's tables (Program.inline, errs).
	inline []Sum
	errs   []source.Error

	// Scratch is the executor's scratch for the bulk memory operations
	// of package runtime: the lowered form uses it between statements
	// (Nest.Leave, inline SUMs), the driver for its communication.
	Scratch *runtime.Scratch
	scratch runtime.Scratch

	// ranges and live, busy are by cfg.Loop.ID Nest.Enter's ranges (four
	// ints a loop: full, mine) and flags, see Frame.full.
	ranges     []int
	live, busy []bool
	memo       []int // Nest.Enter's keys, by Nest.memo
	// unboxed is Nest.Enter's verdict that it could not prove a hoisted
	// read of the nest valid: the entry takes the tested per-element path,
	// which reports the first stale element.
	unboxed bool
	dims    []section.Dim
	idx     []int

	// RunBox's operand stack, scratch rows and the offset of each row of a
	// batch in them; per array reference of the body, the offset at the
	// current row and what a step of each level adds to it; per row of a
	// batch, the offsets and the leaf values prove left for runBatch.
	rowStack  []rowVal
	rowFloats []float64
	rowRuns   []int
	boxCur    []int
	boxStep   []int
	boxOff    []int
	boxLeaf   []float64
}

// NewFrame allocates the state for one executor taking processor p's
// view of mem, which must fit the program's layout (see Reset). Its tables
// and scratch are carved from one slab of each element type, each of whole
// cache lines, so the frames of processors that run at once share none.
func (pr *Program) NewFrame(p int, mem *runtime.Memory) (*Frame, error) {
	rank, loops := pr.Plan.Layout.MaxRank, len(pr.Plan.A.G.Loops)
	scInts, scDims := runtime.ScratchSize(rank)
	ints := make([]int, heapsize.Lines[int](len(pr.Ints)+pr.memoLen+rank+batchRows+pr.rowRefs*(1+pr.boxLevels+batchRows)+4*loops+scInts))
	floats := make([]float64, heapsize.Lines[float64](len(pr.Reals)+pr.numSums+pr.rowFloats+pr.rowLeaves*batchRows))
	bools := make([]bool, heapsize.Lines[bool](len(pr.Ints)+len(pr.Reals)+2*loops))
	dims := make([]section.Dim, heapsize.Lines[section.Dim](rank+scDims))
	fr := &Frame{
		P:      p,
		layout: pr.Plan.Layout,
		inline: pr.inline,
		errs:   pr.errs,
		Ints:   heapsize.Take(&ints, len(pr.Ints)),
		Bound:  heapsize.Take(&bools, len(pr.Ints)),
		Reals:  heapsize.Take(&floats, len(pr.Reals)),
		Set:    heapsize.Take(&bools, len(pr.Reals)),
		Sums:   heapsize.Take(&floats, pr.numSums),
		ranges: heapsize.Take(&ints, 4*loops),
		live:   heapsize.Take(&bools, loops),
		busy:   heapsize.Take(&bools, loops),
		memo:   heapsize.Take(&ints, pr.memoLen),
		dims:   heapsize.Take(&dims, rank),
		idx:    heapsize.Take(&ints, rank),

		rowStack:  make([]rowVal, pr.rowDepth),
		rowFloats: heapsize.Take(&floats, pr.rowFloats),
		rowRuns:   heapsize.Take(&ints, batchRows),
		boxCur:    heapsize.Take(&ints, pr.rowRefs),
		boxStep:   heapsize.Take(&ints, pr.rowRefs*pr.boxLevels),
		boxOff:    heapsize.Take(&ints, pr.rowRefs*batchRows),
		boxLeaf:   heapsize.Take(&floats, pr.rowLeaves*batchRows),
	}
	fr.Scratch = fr.scratch.Carve(rank, &ints, &dims)
	return fr, fr.Reset(mem)
}

// Reset returns the frame to its initial state for another run, over mem:
// an image made under the program's layout or its equal (runtime.Layout.
// Fits). Any other is an error, never a misread.
func (fr *Frame) Reset(mem *runtime.Memory) error {
	if l := fr.layout; !l.Fits(mem.Layout) {
		return fmt.Errorf("plan: a memory image of %s on %d processors does not fit the local boxes of a program lowered for %s on %d",
			mem.Unit.Routine.Name, mem.P, fr.layout.Unit.Routine.Name, fr.layout.P)
	}
	fr.arrays, fr.unboxed = mem.Arrays, false
	clear(fr.Ints)
	clear(fr.Bound)
	clear(fr.Reals)
	clear(fr.Set)
	fr.Err = nil
	return nil
}

// View returns the storage of an array of the program in the bound image.
func (fr *Frame) View(lay *runtime.ArrayLayout) *runtime.ArrayMem { return &fr.arrays[lay.Slot] }

func (fr *Frame) fail(err error) {
	if fr.Err == nil {
		fr.Err = err
	}
}

// Unchanged reports whether the integer slots hold what key (a word a
// slot: its value, math.MinInt while no loop has bound it) recorded at the
// previous call with that key, and records what they hold now.
func (fr *Frame) Unchanged(slots, key []int) bool {
	same := true
	for i, s := range slots {
		v := fr.Ints[s]
		if !fr.Bound[s] {
			v = math.MinInt
		}
		if key[i] != v {
			key[i], same = v, false
		}
	}
	return same
}

// addSlots adds to the list stack[mark:] the slots of a's terms it lacks,
// but for those a nest varies (loopOf[slot] >= 0; nil: none).
func addSlots(stack []int, mark int, a *Affine, loopOf []int) []int {
	for _, t := range a.Terms {
		if (loopOf == nil || loopOf[t.Slot] < 0) && !slices.Contains(stack[mark:], t.Slot) {
			stack = append(stack, t.Slot)
		}
	}
	return stack
}

// Scalars writes the replicated scalar state into dst, replacing its
// contents: the routine parameters and every scalar assigned so far.
func (pr *Program) Scalars(fr *Frame, dst map[string]float64) {
	clear(dst)
	for name, v := range pr.Plan.A.Unit.Params {
		dst[name] = float64(v)
	}
	for s, name := range pr.Reals {
		if fr.Set[s] {
			dst[name] = fr.Reals[s]
		}
	}
}

// ---------------------------------------------------------------------
// Expressions

// Real is one node of a lowered real expression: a kind and its
// operands, carved with the rest of the Program from the lowerer's slabs.
// A node performs at most one floating-point operation of the source,
// after evaluating its operands left to right.
type Real struct {
	kind realKind
	fn   uint8 // realFn1, realFn2: the function's index in fns1, fns2
	// slot is the frame slot read — a loop variable, a scalar, a SUM's
	// total — or the index of realInline's SUM in the program's inline
	// and of realFail's error in its errs.
	slot int32
	c    float64 // realConst
	// x and y are the operands; x is also realBound's fallback and
	// realStrict's failure.
	x, y *Real
	ref  *ArrayRef // realRead, realReplRead
}

type realKind uint8

const (
	realConst    realKind = iota // a literal or a parameter
	realVar                      // the variable of a loop around
	realBound                    // a variable an earlier loop left bound, else x
	realScalar                   // a real scalar, 0 while unassigned (lenient)
	realStrict                   // a real scalar; while unassigned, x fails (strict)
	realReplRead                 // an element of a replicated array
	realRead                     // an element of a distributed array, tested unless hoisted
	// The operations, in the order of their row ops (opAdd … opFn2).
	realAdd
	realSub
	realMul
	realDiv
	realFn1    // fns1[fn](x): negation, a one-argument intrinsic
	realFn2    // fns2[fn](x, y)
	realSum    // the total of a distributed SUM, Frame.Sums[slot]
	realInline // a SUM over a replicated array, scanned in place
	realFail   // records its error and reads 0
)

// Eval evaluates the expression under fr. An operation's result is
// converted explicitly, which rounds it: no platform may fuse it with
// the operation that consumes it (DESIGN.md §17 "No fused forms").
func (n *Real) Eval(fr *Frame) float64 {
	switch n.kind {
	case realConst:
		return n.c
	case realVar:
		return float64(fr.Ints[n.slot])
	case realBound:
		if fr.Bound[n.slot] {
			return float64(fr.Ints[n.slot])
		}
		return n.x.Eval(fr)
	case realScalar:
		return fr.Reals[n.slot]
	case realStrict:
		if !fr.Set[n.slot] {
			n.x.Eval(fr)
		}
		return fr.Reals[n.slot]
	case realReplRead:
		off, _ := n.ref.Offset(fr, 0)
		return fr.arrays[n.ref.Lay.Slot].Data[0][off]
	case realRead:
		return n.ref.read(fr)
	case realAdd:
		return float64(n.x.Eval(fr) + n.y.Eval(fr))
	case realSub:
		return float64(n.x.Eval(fr) - n.y.Eval(fr))
	case realMul:
		return float64(n.x.Eval(fr) * n.y.Eval(fr))
	case realDiv:
		return float64(n.x.Eval(fr) / n.y.Eval(fr))
	case realFn1:
		return float64(fns1[n.fn](n.x.Eval(fr)))
	case realFn2:
		return float64(fns2[n.fn](n.x.Eval(fr), n.y.Eval(fr)))
	case realSum:
		return fr.Sums[n.slot]
	case realInline:
		return fr.inline[n.slot].inline(fr)
	}
	fr.fail(&fr.errs[n.slot])
	return 0
}

// read is an element of a distributed array from the frame's processor's
// view: a stale copy — and any element outside the processor's local box,
// which can never be valid there — is an error, which is how a run proves
// its communication placement sufficient.
func (r *ArrayRef) read(fr *Frame) float64 {
	p, lay := fr.P, r.Lay
	am := fr.arrays[lay.Slot]
	if r.hoisted && !fr.unboxed { // Nest.Enter proved it valid
		return am.Data[p][r.off.Eval(fr)-lay.Base(p)]
	}
	idx := r.Index(fr, fr.idx)
	if fr.Err != nil {
		return 0
	}
	off, in := lay.Local(p, idx)
	if !in || !am.ValidAt(p, idx) {
		fr.Err = &runtime.StaleReadError{Proc: p, Array: lay.Name, Index: slices.Clone(idx)}
		return 0
	}
	return am.Data[p][off]
}

// inline scans a SUM over a replicated array: the shared row in section
// order, adding the element count to Frame.SumFlops.
func (s *Sum) inline(fr *Frame) float64 {
	sec := s.Section(fr)
	if fr.Err != nil {
		return 0
	}
	total, row := 0.0, fr.View(s.Lay).Data[0]
	s.Lay.OwnerRuns(sec, fr.Scratch, func(_, off, n int) {
		for _, v := range row[off : off+n] {
			total += v
		}
		fr.SumFlops += n
	})
	return total
}

// Affine is the integer form Const + Σ Coef·Ints[Slot].
type Affine struct {
	Const int
	Terms []Term
}

// Term is one variable term of an Affine.
type Term struct{ Slot, Coef int }

// Eval evaluates the form under fr.
func (a *Affine) Eval(fr *Frame) int {
	v := a.Const
	for _, t := range a.Terms {
		v += t.Coef * fr.Ints[t.Slot]
	}
	return v
}

func (a *Affine) equal(b *Affine) bool {
	if a.Const != b.Const || len(a.Terms) != len(b.Terms) {
		return false
	}
	for i, t := range a.Terms { // both sorted by slot
		if t != b.Terms[i] {
			return false
		}
	}
	return true
}

// IntExpr is an integer expression: an Affine where lowering could
// fold it to one, else a node (gen != nil) for division, mod, products of
// variables and names only resolvable at run time.
type IntExpr struct {
	Affine
	gen *intNode
}

// Eval evaluates the expression under fr.
func (e *IntExpr) Eval(fr *Frame) int {
	if e.gen != nil {
		return e.gen.eval(fr)
	}
	return e.Affine.Eval(fr)
}

// constant reports the value of an expression without variable parts.
func (e *IntExpr) constant() (int, bool) {
	return e.Const, e.gen == nil && len(e.Terms) == 0
}

// intNode is an integer form that is not affine: a kind and its operands,
// evaluated left to right.
type intNode struct {
	kind intKind
	// slot is intBound's variable, or the index in the program's errs of
	// what intFail records and intDiv and intMod record on a zero divisor.
	slot int32
	c    int // intScale: the factor; intAdd: the sign of y
	x, y *IntExpr
}

type intKind uint8

const (
	intMul   intKind = iota // x·y
	intDiv                  // x/y
	intPow                  // x**y
	intMod                  // mod(x, y)
	intAdd                  // x + c·y
	intScale                // c·x
	intBound                // a variable an earlier loop left bound, else x
	intFail                 // records its error and reads 0
)

func (n *intNode) eval(fr *Frame) int {
	switch n.kind {
	case intMul:
		return n.x.Eval(fr) * n.y.Eval(fr)
	case intDiv, intMod:
		a, b := n.x.Eval(fr), n.y.Eval(fr)
		if b == 0 {
			break
		}
		if n.kind == intDiv {
			return a / b
		}
		return a % b
	case intPow:
		return int(math.Pow(float64(n.x.Eval(fr)), float64(n.y.Eval(fr))))
	case intAdd:
		return n.x.Eval(fr) + n.c*n.y.Eval(fr)
	case intScale:
		return n.c * n.x.Eval(fr)
	case intBound:
		if fr.Bound[n.slot] {
			return fr.Ints[n.slot]
		}
		return n.x.Eval(fr)
	}
	fr.fail(&fr.errs[n.slot])
	return 0
}

// SecExpr is the section of a sectioned reference (a SUM argument),
// one triplet of integer expressions per dimension.
type SecExpr struct {
	Dims []SecDim
}

// SecDim is one triplet of a SecExpr.
type SecDim struct{ Lo, Hi, Step IntExpr }

// Eval evaluates the section under fr into dst (len >= rank).
func (s *SecExpr) Eval(fr *Frame, dst []section.Dim) section.Section {
	dst = dst[:len(s.Dims)]
	for i := range s.Dims {
		d := &s.Dims[i]
		dst[i] = section.Dim{Lo: d.Lo.Eval(fr), Hi: d.Hi.Eval(fr), Step: d.Step.Eval(fr)}
	}
	return section.Section{Dims: dst}
}

// ArrayRef is an element reference with its array's layout.
type ArrayRef struct {
	Lay  *runtime.ArrayLayout
	Pos  source.Pos
	Subs []IntExpr
	// off is the offset in the planes' stride space folded to one affine
	// form; less the processor's Base it replaces the per-dimension
	// evaluation and tests once hoisted says the enclosing nest verified
	// on entry that the subscripts range inside the declared bounds and,
	// unless Frame.unboxed, that the processor holds a read's range valid —
	// a store's it owns. stride is its step per unit of the innermost
	// enclosing loop's variable.
	off     Affine
	stride  int
	hoisted bool
}

// Offset evaluates the subscripts under fr and returns the element's
// offset in processor p's plane; in is false when p's local box does not
// hold it. A subscript outside the declared bounds records an error in
// fr and yields (0, false).
func (r *ArrayRef) Offset(fr *Frame, p int) (off int, in bool) {
	if r.hoisted && !fr.unboxed {
		return r.off.Eval(fr) - r.Lay.Base(p), true
	}
	if idx := r.Index(fr, fr.idx); fr.Err == nil {
		return r.Lay.Local(p, idx)
	}
	return 0, false
}

// Index evaluates the subscripts under fr into idx (len >= rank). The
// first subscript outside the declared bounds records an error in fr and
// ends the evaluation: the caller checks fr.Err.
func (r *ArrayRef) Index(fr *Frame, idx []int) []int {
	arr, idx := r.Lay.Arr, idx[:len(r.Subs)]
	for i := range r.Subs {
		if idx[i] = r.Subs[i].Eval(fr); idx[i] < arr.Lo[i] || idx[i] > arr.Hi[i] {
			fr.fail(rangeError(r.Pos, r.Lay, i, idx[i], idx[i]))
			break
		}
	}
	return idx
}

// rangeError is the positioned error of a subscript, or a range of
// them, outside the declared bounds of a dimension.
func rangeError(pos source.Pos, am *runtime.ArrayLayout, dim, lo, hi int) error {
	sub := fmt.Sprint(lo)
	if hi != lo {
		sub = fmt.Sprintf("%d:%d", lo, hi)
	}
	return source.Errorf(pos, "%s: subscript %s of dimension %d outside the declared %d:%d",
		am.Name, sub, dim+1, am.Arr.Lo[dim], am.Arr.Hi[dim])
}
