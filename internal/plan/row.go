package plan

// Row kernels: the lower level of a Program (DESIGN.md §17). Beside its
// closure tree every assignment under a loop carries the same
// expression as a flat postfix array of row ops over the innermost loop
// around it; localize marks that loop a row loop (Loop.Row) when
// executing its body a statement at a time over a whole row of
// iterations changes no value, and RunRow is that execution. The tree
// stays the semantics: a row RunRow declines is walked on it.

// rowOp is one postfix operation of a statement's row form.
type rowOp struct {
	kind   uint8
	stride int                            // opRead: flat offset step per unit of the row variable
	c      float64                        // opConst
	ref    *ArrayRef                      // opRead
	leaf   RealFn                         // opLeaf
	f1     func(float64) float64          // opFn1
	f2     func(float64, float64) float64 // opFn2
}

const (
	// The two operands that do not move along a row come first.
	opConst uint8 = iota // a literal
	opLeaf               // a subexpression over scalars and outer loop variables
	opVar                // the row variable as a real
	opRead               // an array element, base + stride·t
	opAdd
	opSub
	opMul
	opDiv
	opFn1 // negation, a one-argument intrinsic
	opFn2 // power, a comparison, a two-argument intrinsic
)

// rowVal is one operand on the evaluation stack: a row of values, or —
// v nil — the constant c over the whole row. tmp marks rows in frame
// scratch, which the consuming operation may overwrite; the others are
// views of an array's data.
type rowVal struct {
	v   []float64
	c   float64
	tmp bool
}

// rowArg is what RunRow's proving pass leaves for the executing pass:
// a constant operand's value, an opRead's base offset.
type rowArg struct {
	off int
	c   float64
}

// push appends an operand to the row form of the statement being
// lowered.
func (lw *lowerer) push(op rowOp) {
	if lw.rowOK {
		lw.row = append(lw.row, op)
	}
}

// emit appends an operation on the last arity operands — or, when none
// of them moves along the row, folds them and the operation into one
// leaf evaluated once per row: fn, the closure of the whole
// subexpression. So the operation of an emitted op always has a row
// among its operands.
func (lw *lowerer) emit(op rowOp, arity int, fn RealFn) {
	if !lw.rowOK {
		return
	}
	n := len(lw.row) - arity
	for _, x := range lw.row[n:] {
		if x.kind > opLeaf {
			lw.row = append(lw.row, op)
			return
		}
	}
	lw.row = append(lw.row[:n], rowOp{kind: opLeaf, leaf: fn})
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
		if !ok || st.Guard || st.row == nil || st.LHS.off.coef(lp.Slot) == 0 {
			return nil
		}
		for _, r := range st.reads {
			if !r.hoisted {
				return nil
			}
		}
	}
	body := make([]*Stmt, len(lp.Body))
	for i, n := range lp.Body {
		body[i] = n.(*Stmt)
	}
	ops := 0
	for _, st := range body {
		for _, w := range body {
			if st.LHS.Am == w.LHS.Am && !st.LHS.off.equal(&w.LHS.off) {
				return nil
			}
			for _, r := range st.reads {
				if r.Am == w.LHS.Am && !r.off.equal(&w.LHS.off) {
					return nil
				}
			}
		}
		st.rowStride = st.LHS.off.coef(lp.Slot)
		// The left-hand subscript the loop variable drives is v+c and in
		// range over the whole loop, so a row is no longer than that
		// dimension; and n ops hold at most (n+1)/2 operands at once.
		extent := 0
		for i := range st.LHS.Subs {
			if st.LHS.Subs[i].coef(lp.Slot) != 0 {
				extent = st.LHS.Am.Arr.Hi[i] - st.LHS.Am.Arr.Lo[i] + 1
			}
		}
		depth := (len(st.row) + 1) / 2
		ops += len(st.row)
		lw.pr.rowDepth = max(lw.pr.rowDepth, depth)
		lw.pr.rowFloats = max(lw.pr.rowFloats, depth*extent)
	}
	lw.pr.rowOps = max(lw.pr.rowOps, ops)
	return body
}

// RunRow executes the iterations first..last (what Begin returned) of a
// row loop for the frame's processor, a statement at a time over the
// whole row: every floating-point operation of the source happens once
// per element, in source order, one operation per pass. Before anything
// executes it evaluates every row-invariant operand and proves every
// element the row reads of a distributed array valid. It reports false,
// with nothing stored and no error left in the frame, when an element is
// stale or an operand failed: the caller then walks the loop on the
// closure tree, which reports that element or operand. The loop
// variable is left for the caller to set.
func (lp *Loop) RunRow(fr *Frame, first, last int) bool {
	lo, n := first, last-first+1
	if lp.Step.Const < 0 {
		lo, n = last, first-last+1
	}
	if n <= 0 {
		return true
	}
	p := fr.P
	fr.Ints[lp.Slot] = lo
	args := fr.rowArgs
	k := 0
	for _, st := range lp.Row {
		for i := range st.row {
			switch op := &st.row[i]; op.kind {
			case opConst:
				args[k].c = op.c
			case opLeaf:
				args[k].c = op.leaf(fr)
			case opRead:
				off := op.ref.off.Eval(fr)
				args[k].off = off
				if am := op.ref.Am; am.Dist != nil && !rowValid(am.Valid[p], off, op.stride, n) {
					fr.Err = nil
					return false
				}
			}
			k++
		}
	}
	if fr.Err != nil {
		fr.Err = nil
		return false
	}

	k = 0
	for _, st := range lp.Row {
		// Scratch rows are taken and released in stack order: nt counts
		// the ones in use.
		stack, sp, nt := fr.rowStack, 0, 0
		for i := range st.row {
			op, arg := &st.row[i], &args[k]
			k++
			switch op.kind {
			case opConst, opLeaf:
				stack[sp] = rowVal{c: arg.c}
				sp++
			case opVar:
				t := fr.rowTemp(nt, n)
				nt++
				for i := range t {
					t[i] = float64(lo + i)
				}
				stack[sp] = rowVal{v: t, tmp: true}
				sp++
			case opRead:
				data := op.ref.Am.Data[0]
				if op.ref.Am.Dist != nil {
					data = op.ref.Am.Data[p]
				}
				if op.stride == 1 {
					stack[sp] = rowVal{v: data[arg.off : arg.off+n : arg.off+n]}
				} else {
					t := fr.rowTemp(nt, n)
					nt++
					for i := range t {
						t[i] = data[arg.off+i*op.stride]
					}
					stack[sp] = rowVal{v: t, tmp: true}
				}
				sp++
			case opFn1:
				x := &stack[sp-1]
				dst := x.v
				if !x.tmp {
					dst = fr.rowTemp(nt, n)
					nt++
				}
				for i, a := range x.v {
					dst[i] = op.f1(a)
				}
				*x = rowVal{v: dst, tmp: true}
			default: // two operands, the result in the lowest scratch row among them
				sp--
				x, y := &stack[sp-1], &stack[sp]
				dst := x.v
				switch {
				case x.tmp && y.tmp:
					nt--
				case y.tmp:
					dst = y.v
				case !x.tmp:
					dst = fr.rowTemp(nt, n)
					nt++
				}
				op.apply(dst, x, y)
				*x = rowVal{v: dst, tmp: true}
			}
		}

		// Stored after the statement's last operation, so a right-hand
		// side may read the row it replaces.
		res, am := &stack[0], st.LHS.Am
		off := st.LHS.off.Eval(fr)
		data, valid := am.Data[p], am.Valid[p]
		for i := 0; i < n; i++ {
			v := res.c
			if res.v != nil {
				v = res.v[i]
			}
			data[off+i*st.rowStride], valid[off+i*st.rowStride] = v, true
		}
	}
	return true
}

// rowValid reports whether the elements off, off+stride, ... a row of n
// reads are all valid.
func rowValid(valid []bool, off, stride, n int) bool {
	if stride == 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		if !valid[off+i*stride] {
			return false
		}
	}
	return true
}

// rowTemp returns the i-th scratch row of length n.
func (fr *Frame) rowTemp(i, n int) []float64 {
	return fr.rowFloats[i*n : (i+1)*n : (i+1)*n]
}

// apply computes dst = x op y over the row; dst may be either operand's
// row. One floating-point operation per pass, operands in source order:
// no platform contracts a multiply and an add of the source into one
// rounding, and a constant on either side stays on its side.
func (op *rowOp) apply(dst []float64, x, y *rowVal) {
	xv, yv, a, b := x.v, y.v, x.c, y.c
	switch {
	case xv == nil:
		yv = yv[:len(dst)]
		switch op.kind {
		case opAdd:
			for i, b := range yv {
				dst[i] = a + b
			}
		case opSub:
			for i, b := range yv {
				dst[i] = a - b
			}
		case opMul:
			for i, b := range yv {
				dst[i] = a * b
			}
		case opDiv:
			for i, b := range yv {
				dst[i] = a / b
			}
		default:
			for i, b := range yv {
				dst[i] = op.f2(a, b)
			}
		}
	case yv == nil:
		xv = xv[:len(dst)]
		switch op.kind {
		case opAdd:
			for i, a := range xv {
				dst[i] = a + b
			}
		case opSub:
			for i, a := range xv {
				dst[i] = a - b
			}
		case opMul:
			for i, a := range xv {
				dst[i] = a * b
			}
		case opDiv:
			for i, a := range xv {
				dst[i] = a / b
			}
		default:
			for i, a := range xv {
				dst[i] = op.f2(a, b)
			}
		}
	default:
		xv, yv = xv[:len(dst)], yv[:len(dst)]
		switch op.kind {
		case opAdd:
			for i, a := range xv {
				dst[i] = a + yv[i]
			}
		case opSub:
			for i, a := range xv {
				dst[i] = a - yv[i]
			}
		case opMul:
			for i, a := range xv {
				dst[i] = a * yv[i]
			}
		case opDiv:
			for i, a := range xv {
				dst[i] = a / yv[i]
			}
		default:
			for i, a := range xv {
				dst[i] = op.f2(a, yv[i])
			}
		}
	}
}
