package plan

import "errors"

// Row and box kernels: the lower level of a Program (DESIGN.md §17).
// Beside its tree of nodes every assignment under a loop carries the same
// expression as a flat postfix array of row ops over the innermost loop
// around it; localize marks that loop a row loop (Loop.Row) when
// executing its body a statement at a time over a whole row of
// iterations changes no value, and the perfect chain of loops around it
// over which the same holds a box (Loop.Box). RunBox is that execution,
// a batch of rows at a time. The tree stays the semantics: a row RunBox
// cannot prove is walked on it.

// rowOp is one postfix operation of a statement's row form.
type rowOp struct {
	kind uint8
	fn   uint8 // opFn1, opFn2: the function's index in fns1, fns2
	// slot is the frame scratch row the op's values take (see
	// (*Stmt).scratch): toTarget for the last operation of a unit-stride
	// target, inPlace for an operand read where it lies.
	slot int32
	vars uint64 // opLeaf: depthBit of every enclosing loop whose variable it reads
	// x is the tree's own node of an operand: opConst's literal, opRead's
	// read, opLeaf's subexpression.
	x *Real
}

const (
	// The two operands that do not move along a row come first.
	opConst uint8 = iota // a literal
	opLeaf               // a subexpression over scalars and outer loop variables
	opVar                // the row variable as a real
	opRead               // an array element, base + ref.stride·t
	// The operations, in the order of the nodes' (realAdd … realFn2).
	opAdd
	opSub
	opMul
	opDiv
	opFn1 // negation, a one-argument intrinsic
	opFn2 // power, a comparison, a two-argument intrinsic
)

// The rowOp.slot of what takes no scratch row.
const (
	inPlace  = -1
	toTarget = -2
)

// rowVal is one operand on the evaluation stack over a batch of rows of
// n elements. A row operand (at non-nil) has row r at v[at[r·step]:]: a
// view of an array's plane at the batch's offsets of one reference, or —
// seq — scratch rows one after another. A constant is c over the whole
// batch or, v non-nil, v[r·step] in row r: a leaf that differs from row
// to row.
type rowVal struct {
	v    []float64
	at   []int
	step int
	c    float64
	seq  bool
}

// row returns row r of a row operand.
func (x *rowVal) row(r, n int) []float64 {
	off := x.at[r*x.step]
	return x.v[off : off+n : off+n]
}

// val returns row r of a constant.
func (x *rowVal) val(r int) float64 {
	if x.v == nil {
		return x.c
	}
	return x.v[r*x.step]
}

// flat reports whether the operand is scratch rows or one constant over
// the batch: whether one pass over b·n elements covers it.
func (x *rowVal) flat() bool { return x.seq || x.at == nil && x.v == nil }

// depthBit is the bit of rowOp.vars for the loop at a nesting depth.
// Loops deeper than the word share its last bit: a leaf may then count
// as varying over a box it is constant over, which costs time only.
func depthBit(d int) uint64 { return 1 << min(d, 63) }

// push appends an operand to the row form of the statement being
// lowered.
func (lw *lowerer) push(op rowOp) {
	if lw.rowOK {
		lw.row = append(lw.row, op)
	}
}

// emit appends the operation of node n on the last arity operands — or,
// when none of them moves along the row, folds them and the operation
// into one leaf evaluated once per row: n, the node of the whole
// subexpression. So the operation of an emitted op always has a row
// among its operands.
func (lw *lowerer) emit(n *Real, arity int) {
	if !lw.rowOK {
		return
	}
	k := len(lw.row) - arity
	vars := uint64(0)
	for _, x := range lw.row[k:] {
		if x.kind > opLeaf {
			lw.row = append(lw.row, rowOp{kind: opAdd + uint8(n.kind-realAdd), fn: n.fn})
			return
		}
		vars |= x.vars
	}
	lw.row = append(lw.row[:k], rowOp{kind: opLeaf, x: n, vars: vars})
}

// coef returns the coefficient of an integer slot in the form.
func (a *Affine) coef(slot int) int {
	for _, t := range a.Terms {
		if t.Slot == slot {
			return t.Coef
		}
	}
	return 0
}

// rowBody returns the statements of lp's body when lp, a loop of a
// clamped pure nest, qualifies as a row loop, else nil: the body is
// unguarded statements only, each with a row form and range-verified
// reads; every reference in it to an array it writes has the same
// folded flat offset as that write; and every left-hand side varies
// with the loop.
func (lw *lowerer) rowBody(lp *Loop) []*Stmt {
	for _, n := range lp.Body {
		st, ok := n.(*Stmt)
		if !ok || st.Guard || st.row == nil || st.LHS.stride == 0 {
			return nil
		}
		for _, r := range st.reads {
			if !r.hoisted {
				return nil
			}
		}
	}
	body := lw.s.stmtLists.Make(len(lp.Body))
	for i, n := range lp.Body {
		body[i] = n.(*Stmt)
	}
	refs, leaves := 0, 0
	for _, st := range body {
		for _, w := range body {
			if st.LHS.Lay == w.LHS.Lay && !st.LHS.off.equal(&w.LHS.off) {
				return nil
			}
			for _, r := range st.reads {
				if r.Lay == w.LHS.Lay && !r.off.equal(&w.LHS.off) {
					return nil
				}
			}
		}
		// The left-hand subscript the loop variable drives is v+c and in
		// range over the whole loop, so a row is no longer than that
		// dimension, and a batch of several rows no longer than batchElems.
		extent := batchElems
		for i := range st.LHS.Subs {
			if st.LHS.Subs[i].coef(lp.Slot) != 0 {
				extent = max(extent, st.LHS.Lay.Arr.Hi[i]-st.LHS.Lay.Arr.Lo[i]+1)
			}
		}
		depth, rows := st.scratch()
		lw.pr.rowDepth = max(lw.pr.rowDepth, depth)
		lw.pr.rowFloats = max(lw.pr.rowFloats, rows*extent)
		refs += len(st.reads) + 1 // and the target
		for i := range st.row {
			if st.row[i].kind == opLeaf {
				leaves++
			}
		}
	}
	lp.refs, lp.leaves = refs, leaves
	lw.pr.rowRefs, lw.pr.rowLeaves = max(lw.pr.rowRefs, refs), max(lw.pr.rowLeaves, leaves)
	return body
}

// scratch assigns the statement's row form its scratch rows and returns
// the most operands and scratch rows it holds at once. A unit-stride read
// is a view of its plane and a constant or a leaf a value, neither takes
// a row; the row variable's values, a strided read's gather and an
// operation's result take one, the operation's in the lowest scratch row
// among its operands, else the next free one — rows are taken and
// released in stack order. The last operation of a unit-stride target
// writes the target's rows.
func (st *Stmt) scratch() (depth, rows int) {
	var buf [32]bool
	tmp, nt := buf[:0], 0 // per stack entry: whether it is a scratch row; rows in use
	for i := range st.row {
		op := &st.row[i]
		op.slot = inPlace
		switch {
		case op.kind == opConst || op.kind == opLeaf || op.kind == opRead && op.x.ref.stride == 1:
			tmp = append(tmp, false)
		case op.kind <= opRead:
			op.slot, nt = int32(nt), nt+1
			tmp = append(tmp, true)
		case i == len(st.row)-1 && st.LHS.stride == 1:
			op.slot = toTarget
		case op.kind == opFn1:
			if !tmp[len(tmp)-1] {
				nt++
			}
			op.slot, tmp[len(tmp)-1] = int32(nt-1), true
		default:
			x, y := tmp[len(tmp)-2], tmp[len(tmp)-1]
			switch {
			case x && y:
				nt--
			case !x && !y:
				nt++
			}
			tmp = tmp[:len(tmp)-1]
			op.slot, tmp[len(tmp)-1] = int32(nt-1), true
		}
		depth, rows = max(depth, len(tmp)), max(rows, nt)
	}
	return depth, rows
}

// Outcome is what RunBox did with one execution of a loop.
type Outcome uint8

const (
	// NotApplicable: the loop heads no box, a loop of its chain is empty
	// or not live for the frame's processor, or the nest's entry could not
	// prove a read valid. Nothing was touched; the driver runs the loop
	// itself.
	NotApplicable Outcome = iota
	// Done: every iteration of the box ran; the chain's inner variables
	// hold what walking them leaves, the loop's own is the driver's to set.
	Done
	// Stuck: an operand of a row failed. Every row before it in walk order
	// ran once, nothing of it is stored, no error is left and the chain's
	// outer variables are on it: the driver walks the row loop Box on the
	// tree, which reports that operand.
	Stuck
)

// ErrDeclinedRowRan is the internal error of a driver whose tree ran,
// without complaint, the row a Stuck box handed it.
var ErrDeclinedRowRan = errors.New("internal error: the expression tree ran a row its kernel declined")

// A batch is the rows of a box that are proven and then executed
// together: batchElems elements' worth, batchRows at most, one when a
// row is longer — so an operation's set-up is paid once per batchElems
// elements whatever the row length, and a batch's scratch stays cached.
const (
	batchElems = 256
	batchRows  = 64
)

// batchOf returns how many rows of n elements make a batch.
func batchOf(n int) int { return min(max(batchElems/n, 1), batchRows) }

// RunBox executes, for the frame's processor, the whole box of the
// chain lp heads (one row when lp is a row loop itself), over the ranges
// Nest.Enter left in the frame: a statement at a time over a batch of
// rows, so every floating-point operation of the source happens once per
// element, in source order, one operation per pass. Each batch is proven
// before any of it executes: every operand that does not move along a
// row is evaluated; the elements it reads of a distributed array Enter
// proved valid for the whole box. points is the number of iteration points
// a Done box ran each statement of Box.Row at.
func (lp *Loop) RunBox(fr *Frame) (out Outcome, points int) {
	row := lp.Box
	if row == nil || !fr.busy[row.Src.ID] || fr.unboxed {
		return NotApplicable, 0
	}
	// The first row in walk order: the chain's outer variables are the
	// odometer over the rows, its loops — upwards from the row loop — the
	// levels.
	levels, rows := 0, 1
	for l := row; l != lp; levels++ {
		l = l.outer
		mine := fr.mine(l)
		fr.Ints[l.Slot] = mine.Lo
		if l.Step.Const < 0 {
			fr.Ints[l.Slot] = mine.Hi
		}
		rows *= mine.Hi - mine.Lo + 1
	}
	mine := fr.mine(row)
	lo, n := mine.Lo, mine.Hi-mine.Lo+1
	fr.Ints[row.Slot] = lo

	// Once per box: every reference's offset in the processor's plane at
	// the first row with what a step of each level adds to it — the
	// level's own coefficient less the way back of the levels inside it,
	// which start over — and the leaves nothing in the chain moves.
	cur, step := fr.boxCur[:row.refs], fr.boxStep
	ri := 0
	track := func(ref *ArrayRef) {
		cur[ri] = ref.off.Eval(fr) - ref.Lay.Base(fr.P)
		back := 0
		for l, j := row.outer, levels-1; j >= 0; l, j = l.outer, j-1 {
			mine := fr.mine(l)
			c := ref.off.coef(l.Slot) * l.Step.Const
			step[ri*levels+j] = c - back
			back += c * (mine.Hi - mine.Lo)
		}
		ri++
	}
	for _, st := range row.Row {
		for _, r := range st.reads {
			track(r)
		}
		track(st.LHS)
	}
	row.leafValues(fr, 0)

	b := batchOf(n)
	for done := 0; done < rows; done += b {
		b = min(b, rows-done)
		for r := 0; r < b; r++ {
			if done+r > 0 {
				// The innermost level with a value left steps, those inside
				// it start over.
				l, j := row.outer, levels-1
				for ; ; l, j = l.outer, j-1 {
					mine := fr.mine(l)
					if v := fr.Ints[l.Slot] + l.Step.Const; v >= mine.Lo && v <= mine.Hi {
						fr.Ints[l.Slot] = v
						break
					}
					fr.Ints[l.Slot] += l.Step.Const * (mine.Lo - mine.Hi)
				}
				for ri := range cur {
					cur[ri] += step[ri*levels+j]
				}
			}
			if !row.prove(fr, lp.boxVars, r) {
				fr.Err = nil
				if r > 0 {
					row.runBatch(fr, lp.boxVars, r, n, lo)
				}
				return Stuck, 0
			}
		}
		row.runBatch(fr, lp.boxVars, b, n, lo)
	}
	for l := row; l != lp; l = l.outer {
		l.exit(fr)
	}
	return Done, rows * n
}

// leafValues evaluates the body's leaves under the frame's variables,
// for row r of a batch.
func (lp *Loop) leafValues(fr *Frame, r int) {
	leaves, li := fr.boxLeaf[r*lp.leaves:], 0
	for _, st := range lp.Row {
		for i := range st.row {
			if op := &st.row[i]; op.kind == opLeaf {
				leaves[li] = op.x.Eval(fr)
				li++
			}
		}
	}
}

// prove prepares row r of a batch of the row loop, the row the frame's
// variables and current offsets are on: it keeps the offsets for
// runBatch and evaluates the leaves again when some read a variable of
// the chain (vars). It reports false when a leaf of the box failed.
func (lp *Loop) prove(fr *Frame, vars uint64, r int) bool {
	copy(fr.boxOff[r*lp.refs:(r+1)*lp.refs], fr.boxCur)
	if vars != 0 {
		lp.leafValues(fr, r)
	}
	return fr.Err == nil
}

// runBatch executes the body of the row loop over the b rows of n
// elements prove prepared, a statement at a time. A unit-stride read is a
// view of its plane at the batch's offsets, a constant and a leaf are
// values, and the last operation of a unit-stride target writes the
// target's rows: the row rule puts every reference to an array the body
// writes on the point's own target, and the box's map from points to
// targets is injective, so an operation reads every element of a row
// before it writes that element, and no other. The row variable, a
// strided read and any other operation's result are scratch rows (see
// (*Stmt).scratch).
func (lp *Loop) runBatch(fr *Frame, vars uint64, b, n, lo int) {
	p, m := fr.P, b*n
	ri, li := 0, 0
	for r := 0; r < b; r++ {
		fr.rowRuns[r] = r * n
	}
	for _, st := range lp.Row {
		ti, stack, sp := ri+len(st.reads), fr.rowStack, 0
		// The statement is unguarded, so p owns every element it stores,
		// and an owner's copy is always valid (DESIGN.md §17): only the
		// values change.
		target := rowVal{v: fr.View(st.LHS.Lay).Data[p], at: fr.boxOff[ti:], step: lp.refs}
		for i := range st.row {
			op := &st.row[i]
			switch op.kind {
			case opConst:
				stack[sp] = rowVal{c: op.x.c}
			case opLeaf:
				stack[sp] = rowVal{c: fr.boxLeaf[li]}
				if b > 1 && op.vars&vars != 0 { // differs from row to row
					stack[sp] = rowVal{v: fr.boxLeaf[li:], step: lp.leaves}
				}
				li++
			case opVar:
				t := fr.rowScratch(int(op.slot), m)
				for r := 0; r < m; r += n {
					for i := 0; i < n; i++ {
						t.v[r+i] = float64(lo + i)
					}
				}
				stack[sp] = t
			case opRead:
				am, stride := fr.View(op.x.ref.Lay), op.x.ref.stride
				data := am.Data[0]
				if am.Dist != nil {
					data = am.Data[p]
				}
				if stride == 1 {
					stack[sp] = rowVal{v: data, at: fr.boxOff[ri:], step: lp.refs}
				} else {
					t := fr.rowScratch(int(op.slot), m)
					for r := 0; r < b; r++ {
						off, dst := fr.boxOff[r*lp.refs+ri], t.row(r, n)
						for i := range dst {
							dst[i] = data[off+i*stride]
						}
					}
					stack[sp] = t
				}
				ri++
			default:
				dst := target
				if op.slot != toTarget {
					dst = fr.rowScratch(int(op.slot), m)
				}
				x, y := &stack[sp-1], &stack[sp-1] // opFn1 reads x alone
				if op.kind != opFn1 {
					sp--
					x = &stack[sp-1]
					y = &stack[sp]
				}
				if b > 1 && dst.flat() && x.flat() && y.flat() {
					op.rows(&dst, x, y, 1, m)
				} else {
					op.rows(&dst, x, y, b, n)
				}
				*x = dst
				continue
			}
			sp++
		}
		ri = ti + 1
		if st.row[len(st.row)-1].slot == toTarget {
			continue
		}

		// No operation wrote the target: a copy, a constant, or a strided
		// target, stored after the statement's last operation.
		res, stride := &stack[0], st.LHS.stride
		for r := 0; r < b; r++ {
			off := target.at[r*lp.refs]
			if res.at == nil {
				for i, c := 0, res.val(r); i < n; i++ {
					target.v[off+i*stride] = c
				}
				continue
			}
			if v := res.row(r, n); stride == 1 {
				copy(target.v[off:off+n], v)
			} else {
				for i, c := range v {
					target.v[off+i*stride] = c
				}
			}
		}
	}
}

// rowScratch returns scratch row i of a batch of m elements.
func (fr *Frame) rowScratch(i, m int) rowVal {
	return rowVal{v: fr.rowFloats[i*m : (i+1)*m : (i+1)*m], at: fr.rowRuns, step: 1, seq: true}
}

// rows computes dst = x op y — f1(x) for opFn1 — over b rows of n
// elements, row r of dst from row r of each operand; dst may be either
// operand. The operands' kinds are switched on once per batch, the
// operation's once per row. One floating-point operation per pass,
// operands in source order: no platform contracts a multiply and an add
// of the source into one rounding, and a constant on either side stays on
// its side.
func (op *rowOp) rows(dst, x, y *rowVal, b, n int) {
	switch {
	case op.kind == opFn1:
		f := fns1[op.fn]
		for r := 0; r < b; r++ {
			d, xv := dst.row(r, n), x.row(r, n)
			xv = xv[:len(d)]
			for i, a := range xv {
				d[i] = f(a)
			}
		}
	case x.at == nil:
		for r := 0; r < b; r++ {
			d, a, yv := dst.row(r, n), x.val(r), y.row(r, n)
			yv = yv[:len(d)]
			switch op.kind {
			case opAdd:
				for i, b := range yv {
					d[i] = a + b
				}
			case opSub:
				for i, b := range yv {
					d[i] = a - b
				}
			case opMul:
				for i, b := range yv {
					d[i] = a * b
				}
			case opDiv:
				for i, b := range yv {
					d[i] = a / b
				}
			default:
				f := fns2[op.fn]
				for i, b := range yv {
					d[i] = f(a, b)
				}
			}
		}
	case y.at == nil:
		for r := 0; r < b; r++ {
			d, xv, b := dst.row(r, n), x.row(r, n), y.val(r)
			xv = xv[:len(d)]
			switch op.kind {
			case opAdd:
				for i, a := range xv {
					d[i] = a + b
				}
			case opSub:
				for i, a := range xv {
					d[i] = a - b
				}
			case opMul:
				for i, a := range xv {
					d[i] = a * b
				}
			case opDiv:
				for i, a := range xv {
					d[i] = a / b
				}
			default:
				f := fns2[op.fn]
				for i, a := range xv {
					d[i] = f(a, b)
				}
			}
		}
	default:
		for r := 0; r < b; r++ {
			d, xv, yv := dst.row(r, n), x.row(r, n), y.row(r, n)
			xv, yv = xv[:len(d)], yv[:len(d)]
			switch op.kind {
			case opAdd:
				for i, a := range xv {
					d[i] = a + yv[i]
				}
			case opSub:
				for i, a := range xv {
					d[i] = a - yv[i]
				}
			case opMul:
				for i, a := range xv {
					d[i] = a * yv[i]
				}
			case opDiv:
				for i, a := range xv {
					d[i] = a / yv[i]
				}
			default:
				f := fns2[op.fn]
				for i, a := range xv {
					d[i] = f(a, yv[i])
				}
			}
		}
	}
}
