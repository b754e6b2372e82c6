package plan

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"gcao/internal/ast"
	"gcao/internal/cfg"
	"gcao/internal/core"
	"gcao/internal/lin"
	"gcao/internal/runtime"
	"gcao/internal/source"
)

// Lower turns a placement into its slot-resolved form for the processor
// count its unit was compiled for, building the array layout and no
// memory image. Lowering never rejects a program: what is wrong with an
// expression (an unbound name, a section where an element is needed, a
// malformed SUM) the lowered expression reports when, and only if, it is
// evaluated.
func Lower(res *core.Result) *Program {
	u := res.Analysis.Unit
	pl := newPlan(res, runtime.NewLayout(u, u.Grid.NumProcs(), margins(res)))
	lw := &lowerer{
		pl:       pl,
		pr:       &Program{Plan: pl},
		intSlot:  map[string]int{},
		realSlot: map[string]int{},
		sumSlot:  map[*ast.Call]int{},
	}
	for _, l := range pl.A.G.Loops {
		if _, ok := lw.intSlot[l.Var()]; !ok {
			lw.intSlot[l.Var()] = len(lw.pr.Ints)
			lw.pr.Ints = append(lw.pr.Ints, l.Var())
		}
	}
	lw.vars = make([][]Term, len(lw.pr.Ints))
	for name, sc := range u.Scalars {
		if !sc.IsParam {
			lw.pr.Reals = append(lw.pr.Reals, name)
		}
	}
	sort.Strings(lw.pr.Reals)
	for s, name := range lw.pr.Reals {
		lw.realSlot[name] = s
	}
	lw.pr.Body, _ = lw.seq(pl.A.G.EntryBlock)
	lw.localize(lw.pr.Body)
	return lw.pr
}

// margins returns the overlap region of every array the placement's
// groups leave room for (runtime.NewLayout): the widest shift that
// delivers into it, 0 for an array nothing is delivered into; an array a
// broadcast or general group delivers into is not named, so it keeps its
// declared extents.
func margins(res *core.Result) map[string]int {
	m := make(map[string]int, len(res.Analysis.Unit.ArrayNames))
	for _, name := range res.Analysis.Unit.ArrayNames {
		m[name] = 0
	}
	for _, g := range res.Groups {
		for _, e := range g.Entries {
			if w, ok := m[e.Array]; ok && g.Kind == core.KindShift {
				m[e.Array] = max(w, g.Map.Width)
			} else if g.Kind == core.KindBcast || g.Kind == core.KindGeneral {
				delete(m, e.Array)
			}
		}
	}
	return m
}

type lowerer struct {
	pl       *Plan
	pr       *Program
	intSlot  map[string]int
	realSlot map[string]int
	// loops is the stack of loops around the point being lowered; a
	// variable of one of them is certainly bound there.
	loops []*Loop
	// sums and reads collect the distributed SUMs and the array reads
	// of the statement or condition being lowered; reads is scratch.
	sums    []Sum
	sumSlot map[*ast.Call]int
	reads   []*ArrayRef
	// stack is a copy of loops that the statements lowered since the
	// stack last changed share as their Stmt.loops.
	stack []*Loop
	// The slabs the lowered forms are carved from (carve), so that
	// lowering allocates by the Program, not by the expression: every
	// Affine's terms, every ArrayRef, its subscripts and a statement's
	// list of them, every section's bounds and steps. vars[slot] is the
	// one-term form of a loop variable, which every read of it shares.
	terms    []Term
	subs     []IntExpr
	refs     []ArrayRef
	refLists []*ArrayRef
	bounds   []Affine
	steps    []int
	vars     [][]Term
	// cand is pureNest's scratch, cons and owned clamp's.
	cand  Nest
	cons  []constraint
	owned []Range
	// row collects the row form (see row.go) of the statement being
	// lowered, over the variable of the innermost loop around it, while
	// rowOK says every operand so far has one.
	row   []rowOp
	rowOK bool
}

// depth returns the position, outermost first, of the innermost loop
// around the point being lowered whose variable is in slot, -1 when
// there is none.
func (lw *lowerer) depth(slot int) int {
	for d := len(lw.loops) - 1; d >= 0; d-- {
		if lw.loops[d].Slot == slot {
			return d
		}
	}
	return -1
}

// ---------------------------------------------------------------------
// Control flow: the structured CFG back to a tree

// seq lowers the straight-line region starting at b and returns, with
// the nodes, the block that closes the enclosing construct: the join a
// branch arm falls into, the header a loop body returns to, nil at the
// exit.
func (lw *lowerer) seq(b *cfg.Block) ([]Node, *cfg.Block) {
	var out []Node
	for {
		if b.Kind == cfg.PreHeader {
			lp := lw.loop(b)
			out = append(out, lp)
			b = lp.Src.PostExit
			continue
		}
		comm, first := lw.pl.Comm[b.ID], len(out)
		out = appendComm(out, lw.comm(comm[0]))
		for k, st := range b.Stmts {
			out = append(out, lw.stmt(st))
			out = appendComm(out, lw.comm(comm[k+1]))
		}
		lw.settle(out[first:])
		if b.Branch != nil {
			n := &If{Src: b}
			lw.beginExpr()
			n.Cond = lw.real(b.Branch.Cond)
			n.Sums, n.Sync = lw.sums, len(lw.sums) > 0
			for _, r := range lw.reads {
				n.Sync = n.Sync || r.Lay.Dist != nil
			}
			var join *cfg.Block
			n.Then, join = lw.seq(b.Succs[0])
			if b.Succs[1] != join { // an else arm, not the fall-through edge
				n.Else, _ = lw.seq(b.Succs[1])
			}
			out = append(out, n)
			b = join
			continue
		}
		if len(b.Succs) == 0 {
			return out, nil
		}
		next := b.Succs[0]
		if next.Kind == cfg.Join || next.Kind == cfg.Header {
			return out, next
		}
		b = next
	}
}

func appendComm(out []Node, c *Comm) []Node {
	if c != nil {
		out = append(out, c)
	}
	return out
}

func (lw *lowerer) loop(pre *cfg.Block) *Loop {
	src := pre.Succs[0].Loop // a preheader's first edge enters its loop's header
	lp := &Loop{
		Src:  src,
		Slot: lw.intSlot[src.Var()],
		Pre:  lw.comm(lw.pl.Comm[pre.ID][0]),
		Lo:   lw.intExpr(src.Do.Lo),
		Hi:   lw.intExpr(src.Do.Hi),
		Step: IntExpr{Affine: Affine{Const: 1}},
	}
	if src.Do.Step != nil {
		lp.Step = lw.intExpr(src.Do.Step)
	}
	lw.loops, lw.stack = append(lw.loops, lp), nil
	lp.Head = lw.comm(lw.pl.Comm[src.Header.ID][0])
	lp.Body, _ = lw.seq(src.Header.Succs[0])
	lw.loops, lw.stack = lw.loops[:len(lw.loops)-1], nil
	return lp
}

func (lw *lowerer) stmt(st *cfg.Stmt) *Stmt {
	as := st.Assign
	if lw.stack == nil {
		lw.stack = slices.Clone(lw.loops)
	}
	out := &Stmt{Src: st, Flops: CountFlops(as.RHS), Scalar: -1, Guard: true, loops: lw.stack}
	lw.beginExpr()
	if len(lw.loops) > 0 {
		// An expression of F operations has at most F+1 operands.
		lw.row, lw.rowOK = make([]rowOp, 0, 2*out.Flops+1), true
	}
	out.RHS = lw.real(as.RHS)
	out.Sums, out.reads = lw.sums, carve(&lw.refLists, len(lw.reads))
	copy(out.reads, lw.reads)
	if lw.rowOK {
		out.row, lw.rowOK = lw.row, false
	}
	if am := lw.pl.Layout.Array(as.LHS.Name); am != nil {
		out.LHS = lw.arrayRef(as.LHS, am)
	} else {
		out.Scalar = lw.realSlot[as.LHS.Name]
	}
	return out
}

func (lw *lowerer) beginExpr() {
	lw.sums, lw.reads = nil, lw.reads[:0]
	clear(lw.sumSlot)
	lw.row, lw.rowOK = nil, false
}

// comm lowers the groups placed at one position; nil when there are
// none.
func (lw *lowerer) comm(groups []*core.Group) *Comm {
	if len(groups) == 0 {
		return nil
	}
	c := &Comm{Ops: make([]CommOp, len(groups))}
	for i, g := range groups {
		op := CommOp{Group: g}
		if g.Kind == core.KindShift {
			op.xid, lw.pr.Exchanges = len(lw.pr.Exchanges), append(lw.pr.Exchanges, &c.Ops[i])
		}
		if g.Kind != core.KindReduce {
			for _, e := range g.Entries {
				if es, ok := lw.entry(g, e); ok {
					op.Entries = append(op.Entries, es)
					for i := range es.Lo {
						op.Slots = addSlots(addSlots(op.Slots, &es.Lo[i], nil), &es.Hi[i], nil)
					}
				}
			}
		}
		c.Ops[i] = op
	}
	return c
}

// settle decides where each statement of one block's nodes with
// distributed SUMs settles — its totals descend and it assigns: at the
// global-sum group holding its first SUM (Stmt.Settle, CommOp.Settles)
// when that group holds them all and nothing between can change the
// result — nothing assigns the target or a name the statement reads
// outside its SUMs' arguments (the gathers read those), and no group moves
// the target's array, whose old value it would carry — else at itself.
// Nothing between reads the target: the reduction's placement range
// (§6.2) ends before the first statement that does.
func (lw *lowerer) settle(nodes []Node) {
	for i, n := range nodes {
		if st, ok := n.(*Stmt); ok && len(st.Sums) > 0 {
			if op := lw.settleAt(st, nodes[i+1:]); op != nil {
				if op.Settles == nil { // one allocation a group
					op.Settles = make([]*Stmt, 0, len(op.Group.Entries))
				}
				st.Settle, op.Settles = op, append(op.Settles, st)
			}
		}
	}
}

func (lw *lowerer) settleAt(st *Stmt, after []Node) *CommOp {
	target, free, read := st.Src.Assign.LHS.Name, true, false
	for _, n := range after {
		switch n := n.(type) {
		case *Stmt:
			read = read || lw.pl.A.StmtReads(n.Src, target, true)
			free = free && n.Src.Assign.LHS.Name != target && !lw.pl.A.StmtReads(st.Src, n.Src.Assign.LHS.Name, false)
		case *Comm:
			for k := range n.Ops {
				op := &n.Ops[k]
				if op.Group.Kind == core.KindReduce && op.holds(&st.Sums[0]) {
					if read {
						panic(fmt.Sprintf("plan: internal error: %s read before its global-sum group", target))
					}
					for i := range st.Sums {
						free = free && op.holds(&st.Sums[i])
					}
					if free {
						return op
					}
					return nil
				}
				for _, e := range op.Group.Entries {
					free = free && e.Array != target
				}
			}
		}
	}
	return nil
}

// holds reports whether a SUM is a member of the group.
func (op *CommOp) holds(s *Sum) bool {
	for _, e := range op.Group.Entries {
		if e.Use().Ref == s.arg {
			return true
		}
	}
	return false
}

// entry lowers one group entry's symbolic section. Entries that can
// never move data are dropped: replicated arrays, arrays a shift's grid
// dimension does not partition, and sections over a name no loop binds.
func (lw *lowerer) entry(g *core.Group, e *core.Entry) (EntrySec, bool) {
	am := lw.pl.Layout.Array(e.Array)
	if am.Dist == nil {
		return EntrySec{}, false
	}
	es := EntrySec{Lay: am, ShiftDim: -1}
	if g.Kind == core.KindShift {
		if es.ShiftDim = am.ShiftArrayDim(g.Map.GridDim); es.ShiftDim < 0 {
			return EntrySec{}, false
		}
	}
	sec := e.SectionAt(lw.pl.A, g.Pos.Level())
	n := len(sec.Dims)
	es.Lo, es.Hi, es.Step = carve(&lw.bounds, n), carve(&lw.bounds, n), carve(&lw.steps, n)
	for i, d := range sec.Dims {
		if !lw.form(d.Lo, &es.Lo[i], &es.need) || !lw.form(d.Hi, &es.Hi[i], &es.need) {
			return EntrySec{}, false
		}
		es.Step[i] = max(d.Step, 1)
	}
	slices.Sort(es.need)
	return es, true
}

// form lowers a section bound over loop variables into a, its terms sorted
// by slot, and adds to need the slots it reads from outside their loops;
// false when a name no loop binds appears in it.
func (lw *lowerer) form(f lin.Form, a *Affine, need *[]int) bool {
	a.Const, a.Terms = f.Const, carve(&lw.terms, len(f.Terms))
	for k, t := range f.Terms {
		slot, ok := lw.intSlot[t.Var]
		if !ok {
			return false
		}
		if lw.depth(slot) < 0 && !slices.Contains(*need, slot) {
			*need = append(*need, slot)
		}
		a.Terms[k] = Term{Slot: slot, Coef: t.Coef}
	}
	slices.SortFunc(a.Terms, func(x, y Term) int { return x.Slot - y.Slot })
	return true
}

// maxChunk bounds the elements of one slab allocation.
const maxChunk = 64

// carve returns n zeroed elements from the end of a slab, capped so that
// an append to them copies instead of overwriting the next carving; nil
// for none. A full slab is replaced by a new one — what was carved from
// it stays where it is — twice as large up to maxChunk elements: a
// Program keeps its slabs' unused tails alive as long as it is cached.
func carve[T any](slab *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(n, min(2*cap(s), maxChunk), 16))
	}
	k := len(s)
	*slab = s[:k+n]
	return s[k : k+n : k+n]
}

// ---------------------------------------------------------------------
// Integer expressions

func failInt(err error) IntExpr {
	return IntExpr{Gen: func(fr *Frame) int { fr.fail(err); return 0 }}
}

// intExpr lowers an integer expression (a subscript, a loop or section
// bound), folding it to an affine form over enclosing loop variables
// where the operators allow.
func (lw *lowerer) intExpr(e ast.Expr) IntExpr {
	switch e := e.(type) {
	case *ast.NumLit:
		if !e.IsInt {
			return failInt(source.Errorf(e.Pos, "real literal %q where integer expected", e.Text))
		}
		return IntExpr{Affine: Affine{Const: int(e.Value)}}
	case *ast.Ident:
		return lw.intName(e)
	case *ast.UnaryExpr:
		return lw.intScale(lw.intExpr(e.X), -1)
	case *ast.BinExpr:
		x, y := lw.intExpr(e.X), lw.intExpr(e.Y)
		switch e.Op {
		case ast.Add:
			return lw.intAdd(x, y, 1)
		case ast.Sub_:
			return lw.intAdd(x, y, -1)
		case ast.Mul:
			if c, ok := x.constant(); ok {
				return lw.intScale(y, c)
			}
			if c, ok := y.constant(); ok {
				return lw.intScale(x, c)
			}
		}
		return genBinary(e, x, y)
	case *ast.Call:
		if e.Func == "mod" && len(e.Args) == 2 {
			return genMod(e.Pos, lw.intExpr(e.Args[0]), lw.intExpr(e.Args[1]))
		}
	}
	var pos source.Pos
	if e != nil {
		pos = e.ExprPos()
	}
	return failInt(source.Errorf(pos, "not an integer expression: %s", ast.ExprString(e)))
}

// The gen functions build the closures of the forms that are not affine.
// They are functions of their own because the operands a closure captures
// move to the heap: kept apart, an affine operand of intExpr, intAdd or
// intScale stays on the stack.

// genBinary evaluates a product of two variable parts, a quotient or a
// power at run time.
func genBinary(e *ast.BinExpr, x, y IntExpr) IntExpr {
	switch e.Op {
	case ast.Mul:
		return IntExpr{Gen: func(fr *Frame) int { return x.Eval(fr) * y.Eval(fr) }}
	case ast.Div:
		pos := e.Pos
		return IntExpr{Gen: func(fr *Frame) int {
			a, b := x.Eval(fr), y.Eval(fr)
			if b == 0 {
				fr.fail(source.Errorf(pos, "division by zero"))
				return 0
			}
			return a / b
		}}
	case ast.Pow:
		return IntExpr{Gen: func(fr *Frame) int {
			return int(math.Pow(float64(x.Eval(fr)), float64(y.Eval(fr))))
		}}
	}
	return failInt(source.Errorf(e.Pos, "operator %s in integer expression", e.Op))
}

func genMod(pos source.Pos, x, y IntExpr) IntExpr {
	return IntExpr{Gen: func(fr *Frame) int {
		a, b := x.Eval(fr), y.Eval(fr)
		if b == 0 {
			fr.fail(source.Errorf(pos, "mod by zero"))
			return 0
		}
		return a % b
	}}
}

func genAdd(x, y IntExpr, sign int) IntExpr {
	return IntExpr{Gen: func(fr *Frame) int { return x.Eval(fr) + sign*y.Eval(fr) }}
}

func genScale(x IntExpr, c int) IntExpr {
	return IntExpr{Gen: func(fr *Frame) int { return c * x.Gen(fr) }}
}

// intName resolves a name in integer context: the variable of an
// enclosing loop, else — at run time — a variable some earlier loop
// left bound, else a routine parameter.
func (lw *lowerer) intName(e *ast.Ident) IntExpr {
	slot, isVar := lw.intSlot[e.Name]
	if isVar && lw.depth(slot) >= 0 {
		if lw.vars[slot] == nil {
			lw.vars[slot] = carve(&lw.terms, 1)
			lw.vars[slot][0] = Term{Slot: slot, Coef: 1}
		}
		return IntExpr{Affine: Affine{Terms: lw.vars[slot]}}
	}
	var rest IntExpr
	if v, ok := lw.pl.A.Unit.Params[e.Name]; ok {
		rest = IntExpr{Affine: Affine{Const: v}}
	} else {
		rest = failInt(source.Errorf(e.Pos, "%q is not an integer here", e.Name))
	}
	if !isVar {
		return rest
	}
	return genBound(slot, rest)
}

// genBound reads a variable an earlier loop left bound, else rest.
func genBound(slot int, rest IntExpr) IntExpr {
	return IntExpr{Gen: func(fr *Frame) int {
		if fr.Bound[slot] {
			return fr.Ints[slot]
		}
		return rest.Eval(fr)
	}}
}

func (lw *lowerer) intScale(x IntExpr, c int) IntExpr {
	if x.Gen != nil {
		return genScale(x, c)
	}
	return IntExpr{Affine: lw.addScaled(&Affine{}, &x.Affine, c)}
}

// intAdd returns x + sign·y.
func (lw *lowerer) intAdd(x, y IntExpr, sign int) IntExpr {
	if x.Gen != nil || y.Gen != nil {
		return genAdd(x, y, sign)
	}
	return IntExpr{Affine: lw.addScaled(&x.Affine, &y.Affine, sign)}
}

// addScaled returns x + c·y, dropping the terms that cancel. The result
// shares x's terms when y has none, else carves its own from the slab.
func (lw *lowerer) addScaled(x, y *Affine, c int) Affine {
	out := Affine{Const: x.Const + c*y.Const, Terms: x.Terms}
	if c == 0 || len(y.Terms) == 0 {
		return out
	}
	out.Terms = carve(&lw.terms, len(x.Terms)+len(y.Terms))[:0]
	xs, ys := x.Terms, y.Terms // both sorted by slot: merge
	for len(xs) > 0 || len(ys) > 0 {
		var t Term
		switch {
		case len(ys) == 0 || (len(xs) > 0 && xs[0].Slot < ys[0].Slot):
			t, xs = xs[0], xs[1:]
		case len(xs) == 0 || ys[0].Slot < xs[0].Slot:
			t, ys = Term{Slot: ys[0].Slot, Coef: c * ys[0].Coef}, ys[1:]
		default:
			t, xs, ys = Term{Slot: xs[0].Slot, Coef: xs[0].Coef + c*ys[0].Coef}, xs[1:], ys[1:]
		}
		if t.Coef != 0 {
			out.Terms = append(out.Terms, t)
		}
	}
	out.Terms = slices.Clip(out.Terms)
	return out
}

// ---------------------------------------------------------------------
// Array references

// arrayRef lowers an element reference under its array's layout and folds
// its offset in the planes' stride space where every subscript is affine.
func (lw *lowerer) arrayRef(ref *ast.Ref, am *runtime.ArrayLayout) *ArrayRef {
	r := &carve(&lw.refs, 1)[0]
	r.Lay, r.Pos, r.Subs = am, ref.Pos, carve(&lw.subs, len(ref.Subs))
	for i, sub := range ref.Subs {
		if sub.Kind != ast.SubExpr {
			r.Subs[i] = failInt(source.Errorf(ref.Pos, "section of %s where an element is needed", ref.Name))
			continue
		}
		r.Subs[i] = lw.intExpr(sub.X)
	}
	if r.affine() {
		for i := range r.Subs {
			r.off = lw.addScaled(&r.off, &r.Subs[i].Affine, am.Strides[i])
			r.off.Const -= am.Arr.Lo[i] * am.Strides[i]
		}
		if n := len(lw.loops); n > 0 {
			r.stride = r.off.coef(lw.loops[n-1].Slot)
		}
	}
	return r
}

func (r *ArrayRef) affine() bool {
	for i := range r.Subs {
		if r.Subs[i].Gen != nil {
			return false
		}
	}
	return true
}

// secExpr lowers the section of a SUM argument: element subscripts are
// points, absent triplet parts the declared bounds and stride 1, no
// subscripts the whole array.
func (lw *lowerer) secExpr(ref *ast.Ref, am *runtime.ArrayLayout) SecExpr {
	konst := func(c int) IntExpr { return IntExpr{Affine: Affine{Const: c}} }
	part := func(e ast.Expr, dflt int) IntExpr {
		if e == nil {
			return konst(dflt)
		}
		return lw.intExpr(e)
	}
	arr := am.Arr
	sec := SecExpr{Dims: make([]SecDim, arr.Rank())}
	for i := range sec.Dims {
		switch {
		case len(ref.Subs) == 0:
			sec.Dims[i] = SecDim{Lo: konst(arr.Lo[i]), Hi: konst(arr.Hi[i]), Step: konst(1)}
		case ref.Subs[i].Kind == ast.SubExpr:
			x := lw.intExpr(ref.Subs[i].X)
			sec.Dims[i] = SecDim{Lo: x, Hi: x, Step: konst(1)}
		default:
			sub := ref.Subs[i]
			sec.Dims[i] = SecDim{Lo: part(sub.Lo, arr.Lo[i]), Hi: part(sub.Hi, arr.Hi[i]), Step: part(sub.Step, 1)}
		}
	}
	return sec
}

// ---------------------------------------------------------------------
// Real expressions

func failReal(err error) RealFn {
	return func(fr *Frame) float64 { fr.fail(err); return 0 }
}

// real lowers a real expression to a closure tree with the source
// expression's shape: operands evaluate left to right and every
// floating-point operation of the source happens once, in place. The
// same pass emits the expression's row form, in postfix order.
func (lw *lowerer) real(e ast.Expr) RealFn {
	switch e := e.(type) {
	case *ast.NumLit:
		v := e.Value
		lw.push(rowOp{kind: opConst, c: v})
		return func(*Frame) float64 { return v }
	case *ast.Ident:
		return lw.scalar(e.Name, e.Pos, true)
	case *ast.UnaryExpr:
		x := lw.real(e.X)
		fn := func(fr *Frame) float64 { return -x(fr) }
		lw.emit(rowOp{kind: opFn1, f1: func(x float64) float64 { return -x }}, 1, fn)
		return fn
	case *ast.BinExpr:
		fn := binary(e, lw.real(e.X), lw.real(e.Y))
		op, ok := binOps[e.Op]
		lw.rowOK = lw.rowOK && ok
		lw.emit(op, 2, fn)
		return fn
	case *ast.Ref:
		if am := lw.pl.Layout.Array(e.Name); am != nil {
			return lw.read(e, am)
		}
		return lw.scalar(e.Name, e.Pos, false)
	case *ast.Call:
		if e.Func == "sum" {
			return lw.sum(e)
		}
		return lw.intrinsic(e)
	}
	lw.rowOK = false
	return failReal(fmt.Errorf("cannot evaluate %T", e))
}

func binary(e *ast.BinExpr, x, y RealFn) RealFn {
	switch e.Op {
	case ast.Add:
		return func(fr *Frame) float64 { return x(fr) + y(fr) }
	case ast.Sub_:
		return func(fr *Frame) float64 { return x(fr) - y(fr) }
	case ast.Mul:
		return func(fr *Frame) float64 { return x(fr) * y(fr) }
	case ast.Div:
		return func(fr *Frame) float64 { return x(fr) / y(fr) }
	}
	if f := binOps[e.Op].f2; f != nil {
		return func(fr *Frame) float64 { return f(x(fr), y(fr)) }
	}
	return failReal(source.Errorf(e.Pos, "bad operator %v", e.Op))
}

// binOps gives each binary operator its row op: a kind with element
// loops of its own, or the function both levels call (true is 1).
var binOps = map[ast.BinOp]rowOp{
	ast.Add: {kind: opAdd}, ast.Sub_: {kind: opSub}, ast.Mul: {kind: opMul}, ast.Div: {kind: opDiv},
	ast.Pow:   {kind: opFn2, f2: math.Pow},
	ast.CmpLt: {kind: opFn2, f2: func(x, y float64) float64 { return b2f(x < y) }},
	ast.CmpGt: {kind: opFn2, f2: func(x, y float64) float64 { return b2f(x > y) }},
	ast.CmpLe: {kind: opFn2, f2: func(x, y float64) float64 { return b2f(x <= y) }},
	ast.CmpGe: {kind: opFn2, f2: func(x, y float64) float64 { return b2f(x >= y) }},
	ast.CmpEq: {kind: opFn2, f2: func(x, y float64) float64 { return b2f(x == y) }},
	ast.CmpNe: {kind: opFn2, f2: func(x, y float64) float64 { return b2f(x != y) }},
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// scalar resolves a name in real context: the variable of an enclosing
// loop, else — at run time — a variable an earlier loop left bound,
// else a parameter or a real scalar. Reading a never-assigned scalar is
// an error for a plain identifier (strict) and 0 for a subscriptless
// reference.
func (lw *lowerer) scalar(name string, pos source.Pos, strict bool) RealFn {
	slot, isVar := lw.intSlot[name]
	if d := lw.depth(slot); isVar && d >= 0 {
		fn := func(fr *Frame) float64 { return float64(fr.Ints[slot]) }
		if d == len(lw.loops)-1 {
			lw.push(rowOp{kind: opVar})
		} else {
			lw.push(rowOp{kind: opLeaf, leaf: fn, vars: depthBit(d)})
		}
		return fn
	}
	var rest RealFn
	if v, ok := lw.pl.A.Unit.Params[name]; ok {
		c := float64(v)
		rest = func(*Frame) float64 { return c }
	} else if s, ok := lw.realSlot[name]; ok && strict {
		rest = func(fr *Frame) float64 {
			if !fr.Set[s] && fr.Err == nil {
				fr.fail(source.Errorf(pos, "unbound scalar %q", name))
			}
			return fr.Reals[s]
		}
	} else if ok {
		rest = func(fr *Frame) float64 { return fr.Reals[s] }
	} else if strict {
		rest = failReal(source.Errorf(pos, "unbound scalar %q", name))
	} else {
		rest = func(*Frame) float64 { return 0 }
	}
	fn := rest
	if isVar {
		fn = func(fr *Frame) float64 {
			if fr.Bound[slot] {
				return float64(fr.Ints[slot])
			}
			return rest(fr)
		}
	}
	lw.push(rowOp{kind: opLeaf, leaf: fn})
	return fn
}

// read lowers an array element read from the frame's processor's view of
// the frame's image: a stale copy — and any element outside the
// processor's local box, which can never be valid there — is an error,
// which is how a run proves its communication placement sufficient.
func (lw *lowerer) read(ref *ast.Ref, lay *runtime.ArrayLayout) RealFn {
	r, slot := lw.arrayRef(ref, lay), lay.Slot
	lw.reads = append(lw.reads, r)
	lw.rowOK = lw.rowOK && r.affine()
	lw.push(rowOp{kind: opRead, ref: r})
	if lay.Dist == nil {
		return func(fr *Frame) float64 {
			off, _ := r.Offset(fr, 0)
			return fr.arrays[slot].Data[0][off]
		}
	}
	return func(fr *Frame) float64 {
		am := fr.arrays[slot]
		if r.hoisted && !fr.unboxed { // Nest.Enter proved it valid
			return am.Data[fr.P][r.off.Eval(fr)-lay.Base(fr.P)]
		}
		idx := r.Index(fr, fr.idx)
		if fr.Err != nil {
			return 0
		}
		off, in := lay.Local(fr.P, idx)
		if !in || !am.ValidAt(fr.P, idx) {
			fr.Err = &runtime.StaleReadError{Proc: fr.P, Array: lay.Name, Index: slices.Clone(idx)}
			return 0
		}
		return am.Data[fr.P][off]
	}
}

var (
	intrinsics1 = map[string]func(float64) float64{"sqrt": math.Sqrt, "abs": math.Abs, "exp": math.Exp}
	intrinsics2 = map[string]func(float64, float64) float64{"min": math.Min, "max": math.Max, "mod": mod}
)

// mod is math.Mod, bit for bit. Integral operands below 2⁵³ — what the
// benchmarks' initialisation loops pass — are exact as int64, where the
// remainder is one instruction and, like math.Mod's, takes the sign of x;
// a zero remainder copies it. Everything else (a fraction, y = 0, NaN,
// ±Inf, a magnitude of 2⁵³ or more) is math.Mod's.
func mod(x, y float64) float64 {
	if xi, yi := int64(x), int64(y); math.Abs(x) < 1<<53 && math.Abs(y) < 1<<53 && float64(xi) == x && float64(yi) == y && yi != 0 {
		if r := xi % yi; r != 0 {
			return float64(r)
		}
		return math.Copysign(0, x)
	}
	return math.Mod(x, y)
}

func (lw *lowerer) intrinsic(e *ast.Call) RealFn {
	f1, f2 := intrinsics1[e.Func], intrinsics2[e.Func]
	switch {
	case f1 != nil && len(e.Args) == 1:
		x := lw.real(e.Args[0])
		fn := func(fr *Frame) float64 { return f1(x(fr)) }
		lw.emit(rowOp{kind: opFn1, f1: f1}, 1, fn)
		return fn
	case f2 != nil && len(e.Args) == 2:
		x, y := lw.real(e.Args[0]), lw.real(e.Args[1])
		fn := func(fr *Frame) float64 { return f2(x(fr), y(fr)) }
		lw.emit(rowOp{kind: opFn2, f2: f2}, 2, fn)
		return fn
	}
	lw.rowOK = false
	if f1 != nil || f2 != nil {
		return failReal(source.Errorf(e.Pos, "%s called with %d argument(s)", e.Func, len(e.Args)))
	}
	return failReal(source.Errorf(e.Pos, "unknown intrinsic %q", e.Func))
}

// sum lowers a SUM call. Over a distributed array it is a collective:
// the call is appended to the statement's Sums (once per call site, with
// a slot of its own) and the expression reads the total the backend left
// in Frame.Sums. Over a
// replicated array it scans the shared row in section order and adds the
// element count to Frame.SumFlops.
func (lw *lowerer) sum(e *ast.Call) RealFn {
	lw.rowOK = false
	if len(e.Args) != 1 {
		return failReal(source.Errorf(e.Pos, "sum wants 1 argument"))
	}
	ref, ok := e.Args[0].(*ast.Ref)
	if !ok {
		return failReal(source.Errorf(e.Pos, "sum argument must be an array section"))
	}
	am := lw.pl.Layout.Array(ref.Name)
	if am == nil {
		return failReal(source.Errorf(e.Pos, "sum over non-array %q", ref.Name))
	}
	if am.Dist != nil {
		slot, seen := lw.sumSlot[e]
		if !seen {
			slot = lw.pr.numSums
			lw.pr.numSums++
			lw.sumSlot[e] = slot
			lw.sums = append(lw.sums, Sum{Lay: am, Pos: e.Pos, Sec: lw.secExpr(ref, am), Slot: slot, arg: ref})
		}
		return func(fr *Frame) float64 { return fr.Sums[slot] }
	}
	sum := Sum{Lay: am, Pos: e.Pos, Sec: lw.secExpr(ref, am)}
	return func(fr *Frame) float64 {
		sec := sum.Section(fr)
		if fr.Err != nil {
			return 0
		}
		total, row := 0.0, fr.View(am).Data[0]
		am.OwnerRuns(sec, fr.Scratch, func(_, off, n int) {
			for _, v := range row[off : off+n] {
				total += v
			}
			fr.SumFlops += n
		})
		return total
	}
}
