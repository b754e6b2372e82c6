package plan

import (
	"fmt"
	"math"
	"slices"

	"gcao/internal/ast"
	"gcao/internal/cfg"
	"gcao/internal/core"
	"gcao/internal/heapsize"
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
	lw := &lowerer{pl: pl, pr: &Program{Plan: pl}}
	lw.names()
	lw.expect()
	lw.pr.Body, _ = lw.seq(pl.A.G.EntryBlock)
	lw.localize(lw.pr.Body)
	pr := lw.pr
	pr.errs = heapsize.Pop(&lw.errs, 0, &lw.s.errs)
	pr.bytes += heapsize.Of(pr) + heapsize.Slice(pr.Exchanges) + heapsize.Slice(pr.inline)
	return pr
}

// margins returns, by array slot, the overlap region of every array the
// placement's groups leave room for (runtime.NewLayout): the widest shift
// that delivers into it, 0 for an array nothing is delivered into, -1 —
// its declared extents — for one a broadcast or general group delivers
// into.
func margins(res *core.Result) []int {
	u := res.Analysis.Unit
	m := make([]int, len(u.ArrayNames))
	for _, g := range res.Groups {
		for _, e := range g.Entries {
			slot := u.Arrays[e.Array].Slot
			if g.Kind == core.KindShift && m[slot] >= 0 {
				m[slot] = max(m[slot], g.Map.Width)
			} else if g.Kind == core.KindBcast || g.Kind == core.KindGeneral {
				m[slot] = -1
			}
		}
	}
	return m
}

// names fills the Program's slot tables from one allocation: Ints, the
// loop variables in the order their first loops come in, and Reals, the
// declared non-parameter scalars in name order.
func (lw *lowerer) names() {
	u, loops, reals := lw.pl.A.Unit, lw.pl.A.G.Loops, 0
	for _, sc := range u.Scalars {
		if !sc.IsParam {
			reals++
		}
	}
	names := make([]string, 0, len(loops)+reals)
	for _, l := range loops {
		if !slices.Contains(names, l.Var()) {
			names = append(names, l.Var())
		}
	}
	ints := len(names)
	for name, sc := range u.Scalars {
		if !sc.IsParam {
			names = append(names, name)
		}
	}
	lw.pr.Ints, lw.pr.Reals = names[:ints:ints], names[ints:len(names):len(names)]
	slices.Sort(lw.pr.Reals)
	lw.pr.bytes += heapsize.Slice(names)
}

// intSlot and realSlot return the frame slot of a loop variable and of a
// real scalar; false for a name that is none.
func (lw *lowerer) intSlot(name string) (int, bool) {
	s := slices.Index(lw.pr.Ints, name)
	return s, s >= 0
}

func (lw *lowerer) realSlot(name string) (int, bool) { return slices.BinarySearch(lw.pr.Reals, name) }

type lowerer struct {
	pl *Plan
	pr *Program
	// loops is the stack of loops around the point being lowered; a
	// variable of one of them is certainly bound there.
	loops []*Loop
	// reads collects the array reads of the statement or condition being
	// lowered, which is scratch.
	reads []*ArrayRef
	// stack is the Stmt.loops of the statements lowered since loops changed.
	stack []*Loop
	// s holds what the Program keeps. Lists under construction are popped
	// into it: node lists, the SUMs of the statement or condition being
	// lowered, need, Slots and a nest's slots, entries and proofs, a folded
	// offset's terms and the Program's errors. Every stack is sized once,
	// by expect.
	s      slabs
	nodes  []Node
	sums   []Sum
	ints   []int
	ents   []EntrySec
	proofs []proof
	terms  []Term
	errs   []source.Error
	// vars[slot:slot+1] is the one-term form of a loop variable, which
	// every read of it shares.
	vars []Term
	// unbound[s] is the message of a strict read of real slot s while the
	// scalar is unassigned, made at the first such read.
	unbound []string
	// cand is pureNest's scratch, cons and owned clamp's.
	cand  Nest
	cons  []constraint
	owned []Range
	// row collects the row form (see row.go) of the statement being
	// lowered, over the variable of the innermost loop around it, while
	// rowOK says every operand so far has one; it is scratch.
	row   []rowOp
	rowOK bool
}

// slabs are one lowering's value and list slabs, so that lowering
// allocates by the Program, not by the expression.
type slabs struct {
	nodes     heapsize.Slab[Node]
	stmts     heapsize.Slab[Stmt]
	loops     heapsize.Slab[Loop]
	ifs       heapsize.Slab[If]
	comms     heapsize.Slab[Comm]
	ops       heapsize.Slab[CommOp]
	ents      heapsize.Slab[EntrySec]
	bounds    heapsize.Slab[Affine]
	sums      heapsize.Slab[Sum]
	dims      heapsize.Slab[SecDim]
	reals     heapsize.Slab[Real]
	gens      heapsize.Slab[intNode]
	subs      heapsize.Slab[IntExpr]
	terms     heapsize.Slab[Term]
	refs      heapsize.Slab[ArrayRef]
	refLists  heapsize.Slab[*ArrayRef]
	row       heapsize.Slab[rowOp]
	ints      heapsize.Slab[int]
	loopLists heapsize.Slab[*Loop]
	stmtLists heapsize.Slab[*Stmt]
	nests     heapsize.Slab[Nest]
	ranges    heapsize.Slab[Range]
	proofs    heapsize.Slab[proof]
	errs      heapsize.Slab[source.Error]
}

// expect sizes each slab's first chunk and each stack from counts the
// CFG, the SSA form and the placement hold, and from one walk over the
// statements' and conditions' expressions: exactly or as a bound where it
// can, else a little below the Fig. 10(a) routines' mean density over
// those counts. A stack is one allocation, scratch no Program keeps.
func (lw *lowerer) expect() {
	a, pl, count := &lw.s, lw.pl, &lw.pr.bytes
	g, info := pl.A.G, pl.A.SSA
	stmts, loops, nodes, ifs, depth := len(g.Stmts), len(g.Loops), len(g.Stmts)+len(g.Loops), 0, 0
	var exprs, most exprSize // over every expression, and the most of one
	add := func(e ast.Expr) {
		n := lw.size(e)
		exprs.reals, exprs.ops = exprs.reals+n.reals, exprs.ops+n.ops
		most.ops, most.reads, most.sums = max(most.ops, n.ops), max(most.reads, n.reads), max(most.sums, n.sums)
	}
	for _, b := range g.Blocks {
		for _, groups := range pl.Comm[b.ID] {
			if len(groups) > 0 && b.Kind != cfg.PreHeader && b.Kind != cfg.Header { // a node, not a loop's
				nodes++
			}
		}
		if b.Branch != nil {
			ifs++
			add(b.Branch.Cond)
		}
	}
	for _, st := range g.Stmts {
		add(st.Assign.RHS)
	}
	for _, l := range g.Loops {
		depth = max(depth, l.Depth)
	}
	entries, dims, sums, sumDims, shifts, group := 0, 0, 0, 0, 0, 0
	for _, gr := range pl.Res.Groups {
		if gr.Kind == core.KindShift {
			shifts++
		}
		group = max(group, len(gr.Entries))
		for _, e := range gr.Entries {
			if rank := pl.Layout.Array(e.Array).Arr.Rank(); gr.Kind == core.KindReduce {
				sums, sumDims = sums+1, sumDims+rank
			} else {
				entries, dims = entries+1, dims+rank
			}
		}
	}
	reads, subs := 0, 0
	for _, u := range info.Uses {
		if !u.InReduction {
			reads, subs = reads+1, subs+len(u.Ref.Subs)
		}
	}
	for _, d := range info.Defs {
		subs += len(d.LHS.Subs)
	}
	refs := reads + len(info.Defs)
	a.nodes.Expect(nodes+ifs, count)
	a.stmts.Expect(stmts, count)
	a.loops.Expect(loops, count)
	a.ifs.Expect(ifs, count)
	a.comms.Expect(len(pl.Res.Groups), count)
	a.ops.Expect(len(pl.Res.Groups), count)
	a.ents.Expect(entries, count)
	a.bounds.Expect(2*dims, count)
	a.sums.Expect(sums, count)
	a.dims.Expect(sumDims, count)
	a.refs.Expect(refs, count)
	a.refLists.Expect(reads, count)
	a.subs.Expect(subs, count)
	a.terms.Expect(subs+loops+len(lw.pr.Ints), count)
	a.reals.Expect(exprs.reals, count)
	a.row.Expect(exprs.ops, count)
	a.ints.Expect(dims+entries+len(pl.Res.Groups)+loops+loops*len(lw.pr.Ints)/2, count)
	a.loopLists.Expect(2*loops+stmts, count)
	a.stmtLists.Expect(2*stmts, count)
	a.nests.Expect(loops/2, count)
	a.ranges.Expect(loops*pl.Layout.P, count)
	a.proofs.Expect(reads, count)
	a.gens.Expect(0, count)
	a.errs.Expect(0, count)

	// A stack holds at most one list at a time but the node lists, which
	// nest; a list of slots holds each once; pureNest's candidate is at
	// most every loop and statement, and its up and loopOf share clamp's
	// stack of slots.
	nInts := len(lw.pr.Ints)
	ints, ptrs := make([]int, 2*nInts+loops), make([]*Loop, depth+loops)
	lw.ints = heapsize.Take(&ints, nInts)[:0]
	lw.cand.loopOf = heapsize.Take(&ints, nInts)
	lw.cand.up = ints[:0]
	lw.loops = heapsize.Take(&ptrs, depth)[:0]
	lw.cand.loops = ptrs[:0]
	lw.cand.stmts = make([]*Stmt, 0, stmts)
	lw.nodes, lw.reads, lw.sums = make([]Node, 0, nodes+ifs), make([]*ArrayRef, 0, most.reads), make([]Sum, 0, most.sums)
	lw.ents, lw.proofs, lw.row = make([]EntrySec, 0, group), make([]proof, 0, reads), make([]rowOp, 0, most.ops)
	lw.terms, lw.errs = make([]Term, 0, nInts), make([]source.Error, 0, stmts)
	lw.pr.Exchanges = make([]*CommOp, 0, shifts)
	lw.unbound = make([]string, len(lw.pr.Reals))
	lw.vars = a.terms.Make(nInts)
	for slot := range lw.vars {
		lw.vars[slot] = Term{Slot: slot, Coef: 1}
	}
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
	mark := len(lw.nodes)
	for {
		if b.Kind == cfg.PreHeader {
			lp := lw.loop(b)
			lw.nodes = append(lw.nodes, lp)
			b = lp.Src.PostExit
			continue
		}
		first := len(lw.nodes)
		for k, groups := range lw.pl.Comm[b.ID] { // the block top, then after each statement
			if k > 0 {
				lw.nodes = append(lw.nodes, lw.stmt(b.Stmts[k-1]))
			}
			if c := lw.comm(groups); c != nil {
				lw.nodes = append(lw.nodes, c)
			}
		}
		lw.settle(lw.nodes[first:])
		if b.Branch != nil {
			n := lw.s.ifs.New()
			lw.beginExpr()
			n.Src, n.Cond = b, lw.real(b.Branch.Cond)
			n.Sums, n.Sync = lw.s.sums.Carve(lw.sums), len(lw.sums) > 0
			for _, r := range lw.reads {
				n.Sync = n.Sync || r.Lay.Dist != nil
			}
			var join *cfg.Block
			n.Then, join = lw.seq(b.Succs[0])
			if b.Succs[1] != join { // an else arm, not the fall-through edge
				n.Else, _ = lw.seq(b.Succs[1])
			}
			lw.nodes = append(lw.nodes, n)
			b = join
			continue
		}
		if len(b.Succs) == 0 {
			return heapsize.Pop(&lw.nodes, mark, &lw.s.nodes), nil
		}
		next := b.Succs[0]
		if next.Kind == cfg.Join || next.Kind == cfg.Header {
			return heapsize.Pop(&lw.nodes, mark, &lw.s.nodes), next
		}
		b = next
	}
}

func (lw *lowerer) loop(pre *cfg.Block) *Loop {
	src := pre.Succs[0].Loop // a preheader's first edge enters its loop's header
	slot, _ := lw.intSlot(src.Var())
	lp := lw.s.loops.New()
	*lp = Loop{
		Src:  src,
		Slot: slot,
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
		lw.stack = lw.s.loopLists.Carve(lw.loops)
	}
	out := lw.s.stmts.New()
	*out = Stmt{Src: st, Flops: CountFlops(as.RHS), Scalar: -1, Guard: true, loops: lw.stack}
	lw.beginExpr()
	lw.rowOK = len(lw.loops) > 0
	out.RHS = lw.real(as.RHS)
	out.Sums, out.reads = lw.s.sums.Carve(lw.sums), lw.s.refLists.Carve(lw.reads)
	if lw.rowOK {
		out.row, lw.rowOK = lw.s.row.Carve(lw.row), false
	}
	if am := lw.pl.Layout.Array(as.LHS.Name); am != nil {
		out.LHS = lw.arrayRef(as.LHS, am)
	} else {
		out.Scalar, _ = lw.realSlot(as.LHS.Name)
	}
	return out
}

func (lw *lowerer) beginExpr() {
	lw.sums, lw.reads = lw.sums[:0], lw.reads[:0]
	lw.row, lw.rowOK = lw.row[:0], false
}

// comm lowers the groups placed at one position; nil when there are
// none.
func (lw *lowerer) comm(groups []*core.Group) *Comm {
	if len(groups) == 0 {
		return nil
	}
	c := lw.s.comms.New()
	c.Ops = lw.s.ops.Make(len(groups))
	for i, g := range groups {
		op := &c.Ops[i]
		op.Group = g
		if g.Kind == core.KindShift {
			op.xid, lw.pr.Exchanges = len(lw.pr.Exchanges), append(lw.pr.Exchanges, op)
		}
		if g.Kind == core.KindReduce {
			continue
		}
		mark := len(lw.ents)
		for _, e := range g.Entries {
			if es, ok := lw.entry(g, e); ok {
				lw.ents = append(lw.ents, es)
			}
		}
		op.Entries = heapsize.Pop(&lw.ents, mark, &lw.s.ents)
		mark = len(lw.ints)
		for _, es := range op.Entries {
			for i := range es.Lo {
				lw.ints = addSlots(addSlots(lw.ints, mark, &es.Lo[i], nil), mark, &es.Hi[i], nil)
			}
		}
		op.Slots = heapsize.Pop(&lw.ints, mark, &lw.s.ints)
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
				if op.Settles == nil {
					op.Settles = lw.s.stmtLists.Make(len(op.Group.Entries))[:0]
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
	es.Lo, es.Hi, es.Step = lw.s.bounds.Make(n), lw.s.bounds.Make(n), lw.s.ints.Make(n)
	mark := len(lw.ints)
	for i, d := range sec.Dims {
		if !lw.form(d.Lo, &es.Lo[i], mark) || !lw.form(d.Hi, &es.Hi[i], mark) {
			lw.ints = lw.ints[:mark]
			return EntrySec{}, false
		}
		es.Step[i] = max(d.Step, 1)
	}
	slices.Sort(lw.ints[mark:])
	es.need = heapsize.Pop(&lw.ints, mark, &lw.s.ints)
	return es, true
}

// form lowers a section bound over loop variables into a, its terms sorted
// by slot, and adds to the list lw.ints[need:] the slots it reads from
// outside their loops; false when a name no loop binds appears in it.
func (lw *lowerer) form(f lin.Form, a *Affine, need int) bool {
	a.Const, a.Terms = f.Const, lw.s.terms.Make(len(f.Terms))
	for k, t := range f.Terms {
		slot, ok := lw.intSlot(t.Var)
		if !ok {
			return false
		}
		if lw.depth(slot) < 0 && !slices.Contains(lw.ints[need:], slot) {
			lw.ints = append(lw.ints, slot)
		}
		a.Terms[k] = Term{Slot: slot, Coef: t.Coef}
	}
	slices.SortFunc(a.Terms, func(x, y Term) int { return x.Slot - y.Slot })
	return true
}

// ---------------------------------------------------------------------
// Integer expressions

// intExpr lowers an integer expression (a subscript, a loop or section
// bound), folding it to an affine form over enclosing loop variables
// where the operators allow.
func (lw *lowerer) intExpr(e ast.Expr) IntExpr {
	switch e := e.(type) {
	case *ast.NumLit:
		if !e.IsInt {
			return lw.failInt(e.Pos, fmt.Sprintf("real literal %q where integer expected", e.Text))
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
			return lw.gen(intNode{kind: intMul}, &x, &y)
		case ast.Div:
			return lw.gen(intNode{kind: intDiv, slot: lw.errorAt(e.Pos, "division by zero")}, &x, &y)
		case ast.Pow:
			return lw.gen(intNode{kind: intPow}, &x, &y)
		}
		return lw.failInt(e.Pos, fmt.Sprintf("operator %s in integer expression", e.Op))
	case *ast.Call:
		if e.Func == "mod" && len(e.Args) == 2 {
			x, y := lw.intExpr(e.Args[0]), lw.intExpr(e.Args[1])
			return lw.gen(intNode{kind: intMod, slot: lw.errorAt(e.Pos, "mod by zero")}, &x, &y)
		}
	}
	var pos source.Pos
	if e != nil {
		pos = e.ExprPos()
	}
	return lw.failInt(pos, "not an integer expression: "+ast.ExprString(e))
}

// gen returns the form of node n, carved from the slab with copies of its
// operands (nil for none).
func (lw *lowerer) gen(n intNode, x, y *IntExpr) IntExpr {
	g := lw.s.gens.New()
	*g = n
	if x != nil {
		g.x = lw.s.subs.New()
		*g.x = *x
	}
	if y != nil {
		g.y = lw.s.subs.New()
		*g.y = *y
	}
	return IntExpr{gen: g}
}

// failInt and failReal are the forms of an error with a message of its
// own.
func (lw *lowerer) failInt(pos source.Pos, msg string) IntExpr {
	return lw.gen(intNode{kind: intFail, slot: lw.errorAt(pos, msg)}, nil, nil)
}

// errorAt adds a positioned error to the program's table and returns its
// index. The table is popped into a slab at the end of lowering, the message
// counted here: a constant or a message several errors share, for each.
func (lw *lowerer) errorAt(pos source.Pos, msg string) int32 {
	lw.pr.bytes += int64(len(msg))
	lw.errs = append(lw.errs, source.Error{Pos: pos, Msg: msg})
	return int32(len(lw.errs) - 1)
}

// intName resolves a name in integer context: the variable of an
// enclosing loop, else — at run time — a variable some earlier loop
// left bound, else a routine parameter.
func (lw *lowerer) intName(e *ast.Ident) IntExpr {
	slot, isVar := lw.intSlot(e.Name)
	if isVar && lw.depth(slot) >= 0 {
		return IntExpr{Affine: Affine{Terms: lw.vars[slot : slot+1 : slot+1]}}
	}
	var rest IntExpr
	if v, ok := lw.pl.A.Unit.Params[e.Name]; ok {
		rest = IntExpr{Affine: Affine{Const: v}}
	} else {
		rest = lw.failInt(e.Pos, fmt.Sprintf("%q is not an integer here", e.Name))
	}
	if !isVar {
		return rest
	}
	return lw.gen(intNode{kind: intBound, slot: int32(slot)}, &rest, nil)
}

func (lw *lowerer) intScale(x IntExpr, c int) IntExpr {
	if x.gen != nil {
		return lw.gen(intNode{kind: intScale, c: c}, &x, nil)
	}
	return IntExpr{Affine: lw.addScaled(&Affine{}, &x.Affine, c)}
}

// intAdd returns x + sign·y.
func (lw *lowerer) intAdd(x, y IntExpr, sign int) IntExpr {
	if x.gen != nil || y.gen != nil {
		return lw.gen(intNode{kind: intAdd, c: sign}, &x, &y)
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
	out.Terms = lw.s.terms.Make(len(x.Terms) + len(y.Terms))[:0]
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
	r := lw.s.refs.New()
	r.Lay, r.Pos, r.Subs = am, ref.Pos, lw.s.subs.Make(len(ref.Subs))
	for i, sub := range ref.Subs {
		if sub.Kind != ast.SubExpr {
			r.Subs[i] = lw.failInt(ref.Pos, fmt.Sprintf("section of %s where an element is needed", ref.Name))
			continue
		}
		r.Subs[i] = lw.intExpr(sub.X)
	}
	if r.affine() {
		r.off = lw.offset(r)
		if n := len(lw.loops); n > 0 {
			r.stride = r.off.coef(lw.loops[n-1].Slot)
		}
	}
	return r
}

// offset folds the subscripts of a reference, all affine, into its offset
// in the planes' stride space, summing their terms by slot on a stack.
func (lw *lowerer) offset(r *ArrayRef) (off Affine) {
	for i := range r.Subs {
		sub, stride := &r.Subs[i], r.Lay.Strides[i]
		off.Const += (sub.Const - r.Lay.Arr.Lo[i]) * stride
		for _, t := range sub.Terms {
			if j := slices.IndexFunc(lw.terms, func(u Term) bool { return u.Slot == t.Slot }); j >= 0 {
				lw.terms[j].Coef += t.Coef * stride
			} else {
				lw.terms = append(lw.terms, Term{Slot: t.Slot, Coef: t.Coef * stride})
			}
		}
	}
	lw.terms = slices.DeleteFunc(lw.terms, func(t Term) bool { return t.Coef == 0 })
	slices.SortFunc(lw.terms, func(x, y Term) int { return x.Slot - y.Slot })
	off.Terms = heapsize.Pop(&lw.terms, 0, &lw.s.terms)
	return off
}

func (r *ArrayRef) affine() bool {
	for i := range r.Subs {
		if r.Subs[i].gen != nil {
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
	sec := SecExpr{Dims: lw.s.dims.Make(arr.Rank())}
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

// real lowers a real expression to a tree of nodes with the source
// expression's shape: operands evaluate left to right and every
// floating-point operation of the source happens once, in place. The
// same pass emits the expression's row form, in postfix order.
func (lw *lowerer) real(e ast.Expr) *Real {
	switch e := e.(type) {
	case *ast.NumLit:
		n := lw.node(Real{kind: realConst, c: e.Value})
		lw.push(rowOp{kind: opConst, x: n})
		return n
	case *ast.Ident:
		return lw.scalar(e.Name, e.Pos, true)
	case *ast.UnaryExpr:
		n := lw.node(Real{kind: realFn1, fn: fnNeg, x: lw.real(e.X)})
		lw.emit(n, 1)
		return n
	case *ast.BinExpr:
		x, y := lw.real(e.X), lw.real(e.Y)
		op, ok := binOps[e.Op]
		if !ok {
			lw.rowOK = false
			return lw.failReal(e.Pos, fmt.Sprintf("bad operator %v", e.Op))
		}
		n := lw.node(Real{kind: op.kind, fn: op.fn, x: x, y: y})
		lw.emit(n, 2)
		return n
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
	var pos source.Pos
	if e != nil {
		pos = e.ExprPos()
	}
	return lw.failReal(pos, fmt.Sprintf("cannot evaluate %T", e))
}

// exprSize is what lowering one real expression takes: its nodes, its row
// ops, its array reads and its SUM calls.
type exprSize struct{ reals, ops, reads, sums int }

// size returns what real makes of e, walking it the same way: exactly but
// for a loop variable read outside its loop, which takes one node more.
func (lw *lowerer) size(e ast.Expr) exprSize {
	switch e := e.(type) {
	case *ast.NumLit:
		return exprSize{reals: 1, ops: 1}
	case *ast.Ident:
		if _, ok := lw.realSlot(e.Name); ok {
			return exprSize{reals: 2, ops: 1} // a strict read and its failure
		}
		return exprSize{reals: 1, ops: 1}
	case *ast.UnaryExpr:
		x := lw.size(e.X)
		return exprSize{x.reals + 1, x.ops + 1, x.reads, x.sums}
	case *ast.BinExpr:
		x, y := lw.size(e.X), lw.size(e.Y)
		return exprSize{x.reals + y.reals + 1, x.ops + y.ops + 1, x.reads + y.reads, x.sums + y.sums}
	case *ast.Ref:
		if lw.pl.Layout.Array(e.Name) != nil {
			return exprSize{reals: 1, ops: 1, reads: 1}
		}
		return exprSize{reals: 1, ops: 1}
	case *ast.Call:
		if e.Func == "sum" {
			return exprSize{reals: 1, sums: 1}
		}
		n := exprSize{reals: 1, ops: 1}
		if len(e.Args) <= 2 {
			for _, arg := range e.Args {
				x := lw.size(arg)
				n = exprSize{n.reals + x.reals, n.ops + x.ops, n.reads + x.reads, n.sums + x.sums}
			}
		}
		return n
	}
	return exprSize{reals: 1}
}

// node carves a real node from the slab.
func (lw *lowerer) node(n Real) *Real {
	p := lw.s.reals.New()
	*p = n
	return p
}

func (lw *lowerer) failReal(pos source.Pos, msg string) *Real {
	return lw.node(Real{kind: realFail, slot: lw.errorAt(pos, msg)})
}

// binOps gives each binary operator its node: an arithmetic kind, or a
// call of the function fns2[fn].
var binOps = map[ast.BinOp]struct {
	kind realKind
	fn   uint8
}{
	ast.Add: {kind: realAdd}, ast.Sub_: {kind: realSub}, ast.Mul: {kind: realMul}, ast.Div: {kind: realDiv},
	ast.Pow: {realFn2, fnPow}, ast.CmpLt: {realFn2, fnLt}, ast.CmpGt: {realFn2, fnGt},
	ast.CmpLe: {realFn2, fnLe}, ast.CmpGe: {realFn2, fnGe}, ast.CmpEq: {realFn2, fnEq}, ast.CmpNe: {realFn2, fnNe},
}

// The functions a Fn1 or Fn2 node or row op calls, by index: static
// values, the same for the tree and the row kernels. A comparison's true
// is 1.
const (
	fnNeg = iota
	fnSqrt
	fnAbs
	fnExp
)

const (
	fnPow = iota
	fnLt
	fnGt
	fnLe
	fnGe
	fnEq
	fnNe
	fnMin
	fnMax
	fnMod
)

var (
	fns1 = [...]func(float64) float64{
		fnNeg: func(x float64) float64 { return -x }, fnSqrt: math.Sqrt, fnAbs: math.Abs, fnExp: math.Exp,
	}
	fns2 = [...]func(float64, float64) float64{
		fnPow: math.Pow,
		fnLt:  func(x, y float64) float64 { return b2f(x < y) },
		fnGt:  func(x, y float64) float64 { return b2f(x > y) },
		fnLe:  func(x, y float64) float64 { return b2f(x <= y) },
		fnGe:  func(x, y float64) float64 { return b2f(x >= y) },
		fnEq:  func(x, y float64) float64 { return b2f(x == y) },
		fnNe:  func(x, y float64) float64 { return b2f(x != y) },
		fnMin: math.Min, fnMax: math.Max, fnMod: mod,
	}
	intrinsics1 = map[string]uint8{"sqrt": fnSqrt, "abs": fnAbs, "exp": fnExp}
	intrinsics2 = map[string]uint8{"min": fnMin, "max": fnMax, "mod": fnMod}
)

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
func (lw *lowerer) scalar(name string, pos source.Pos, strict bool) *Real {
	slot, isVar := lw.intSlot(name)
	if d := lw.depth(slot); isVar && d >= 0 {
		n := lw.node(Real{kind: realVar, slot: int32(slot)})
		if d == len(lw.loops)-1 {
			lw.push(rowOp{kind: opVar})
		} else {
			lw.push(rowOp{kind: opLeaf, x: n, vars: depthBit(d)})
		}
		return n
	}
	var n *Real
	if v, ok := lw.pl.A.Unit.Params[name]; ok {
		n = lw.node(Real{kind: realConst, c: float64(v)})
	} else if s, ok := lw.realSlot(name); ok && strict {
		if lw.unbound[s] == "" {
			lw.unbound[s] = fmt.Sprintf("unbound scalar %q", name)
		}
		fail := lw.node(Real{kind: realFail, slot: lw.errorAt(pos, lw.unbound[s])})
		n = lw.node(Real{kind: realStrict, slot: int32(s), x: fail})
	} else if ok {
		n = lw.node(Real{kind: realScalar, slot: int32(s)})
	} else if strict {
		n = lw.failReal(pos, fmt.Sprintf("unbound scalar %q", name))
	} else {
		n = lw.node(Real{kind: realConst})
	}
	if isVar {
		n = lw.node(Real{kind: realBound, slot: int32(slot), x: n})
	}
	lw.push(rowOp{kind: opLeaf, x: n})
	return n
}

// read lowers an array element read from the frame's processor's view of
// the frame's image (ArrayRef.read).
func (lw *lowerer) read(ref *ast.Ref, lay *runtime.ArrayLayout) *Real {
	r := lw.arrayRef(ref, lay)
	lw.reads = append(lw.reads, r)
	lw.rowOK = lw.rowOK && r.affine()
	n := lw.node(Real{kind: realRead, ref: r})
	if lay.Dist == nil {
		n.kind = realReplRead
	}
	lw.push(rowOp{kind: opRead, x: n})
	return n
}

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

func (lw *lowerer) intrinsic(e *ast.Call) *Real {
	f1, ok1 := intrinsics1[e.Func]
	f2, ok2 := intrinsics2[e.Func]
	switch {
	case ok1 && len(e.Args) == 1:
		n := lw.node(Real{kind: realFn1, fn: f1, x: lw.real(e.Args[0])})
		lw.emit(n, 1)
		return n
	case ok2 && len(e.Args) == 2:
		x, y := lw.real(e.Args[0]), lw.real(e.Args[1])
		n := lw.node(Real{kind: realFn2, fn: f2, x: x, y: y})
		lw.emit(n, 2)
		return n
	}
	lw.rowOK = false
	if ok1 || ok2 {
		return lw.failReal(e.Pos, fmt.Sprintf("%s called with %d argument(s)", e.Func, len(e.Args)))
	}
	return lw.failReal(e.Pos, fmt.Sprintf("unknown intrinsic %q", e.Func))
}

// sum lowers a SUM call. Over a distributed array it is a collective:
// the call is appended to the statement's Sums (once per call site, with
// a slot of its own) and the expression reads the total the backend left
// in Frame.Sums. Over a replicated array it scans the shared row in
// section order (Sum.inline).
func (lw *lowerer) sum(e *ast.Call) *Real {
	lw.rowOK = false
	if len(e.Args) != 1 {
		return lw.failReal(e.Pos, "sum wants 1 argument")
	}
	ref, ok := e.Args[0].(*ast.Ref)
	if !ok {
		return lw.failReal(e.Pos, "sum argument must be an array section")
	}
	am := lw.pl.Layout.Array(ref.Name)
	if am == nil {
		return lw.failReal(e.Pos, fmt.Sprintf("sum over non-array %q", ref.Name))
	}
	if am.Dist != nil {
		i := slices.IndexFunc(lw.sums, func(s Sum) bool { return s.arg == ref })
		if i < 0 {
			i = len(lw.sums)
			lw.sums = append(lw.sums, Sum{Lay: am, Pos: e.Pos, Sec: lw.secExpr(ref, am), Slot: lw.pr.numSums, arg: ref})
			lw.pr.numSums++
		}
		return lw.node(Real{kind: realSum, slot: int32(lw.sums[i].Slot)})
	}
	lw.pr.inline = append(lw.pr.inline, Sum{Lay: am, Pos: e.Pos, Sec: lw.secExpr(ref, am)})
	return lw.node(Real{kind: realInline, slot: int32(len(lw.pr.inline) - 1)})
}
