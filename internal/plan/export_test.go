package plan

import (
	"slices"

	"gcao/internal/runtime"
	"gcao/internal/section"
)

// ClearRows removes the row-loop and box marks from a lowered program,
// so that a driver walks every loop on the expression tree: the element
// walk the kernels are held against. ClearChains removes only the marks
// of the chains, so that a driver runs every row loop a row at a time.
// For tests only — nothing else changes a Program after Lower.
func ClearRows(pr *Program)   { clearMarks(pr.Body, true) }
func ClearChains(pr *Program) { clearMarks(pr.Body, false) }

func clearMarks(nodes []Node, rows bool) {
	for _, n := range nodes {
		switch n := n.(type) {
		case *Loop:
			if rows {
				n.Row = nil
			}
			if rows || n.Box != n {
				n.Box = nil
			}
			clearMarks(n.Body, rows)
		case *If:
			clearMarks(n.Then, rows)
			clearMarks(n.Else, rows)
		}
	}
}

// BuildTree constructs the binomial tree for procs processors.
func BuildTree(procs int) *Tree { return buildTree(procs) }

// BatchRows is how many rows of n elements RunBox proves and executes
// together.
func BatchRows(n int) int { return batchOf(n) }

// BoxShape returns the rows and the row length of the box lp heads for
// the frame's processor, under the ranges the nest's Enter left.
func (lp *Loop) BoxShape(fr *Frame) (rows, n int) {
	rows = 1
	for l := lp.Box; l != lp; {
		l = l.outer
		r := fr.mine(l)
		rows *= r.Hi - r.Lo + 1
	}
	r := fr.mine(lp.Box)
	return rows, r.Hi - r.Lo + 1
}

// Verified reports whether Enter would return at once under fr: the
// frame's last entry of the nest that verified was made by the same
// processor with the same values in the slots the nest reads.
func (n *Nest) Verified(fr *Frame) bool {
	key := fr.memo[n.memo : n.memo+1+len(n.slots)]
	return key[0] == fr.P+1 && fr.Unchanged(n.slots, slices.Clone(key[1:]))
}

// AtWay is Schedules.At, naming the way it took: "replayed", "translated"
// or "built".
func (ss *Schedules) AtWay(fr *Frame, op *CommOp, p int) (*Schedule, string) { return ss.at(fr, op, p) }

// Build builds processor p's schedule of op under fr from scratch.
func (ss *Schedules) Build(fr *Frame, op *CommOp, p int) *Schedule {
	s := &ss.s[p*ss.nx+op.xid]
	s.build(fr, op, p)
	return s
}

// Matches reports whether s holds what f, built from scratch where s is
// now, holds: the same neighbours, arrays and sections, the same runs at
// the same offsets and the same received strips (or both empty).
func (s *Schedule) Matches(f *Schedule) bool {
	if s.Dst != f.Dst || s.Src != f.Src || len(s.Ents) != len(f.Ents) {
		return false
	}
	empty := func(dims []section.Dim) bool { return section.Section{Dims: dims}.IsEmpty() }
	sameRuns := func(a, b []runtime.Run, da, db int) bool {
		return slices.EqualFunc(a, b, func(x, y runtime.Run) bool { return x.Off+da == y.Off+db && x.N == y.N })
	}
	for i, e := range s.Ents {
		g := f.Ents[i]
		if e.Am != g.Am || !slices.Equal(e.at, g.at) || !slices.Equal(e.Ghost, g.Ghost) && !(empty(e.Ghost) && empty(g.Ghost)) ||
			!slices.Equal(e.Sent, g.Sent) && !(empty(e.Sent) && empty(g.Sent)) ||
			!sameRuns(e.Send, g.Send, e.Off, g.Off) || !sameRuns(e.Recv, g.Recv, e.Off, g.Off) {
			return false
		}
	}
	return true
}

// RowFloats is the length of a frame's scratch rows: what the statement
// holding the most scratch rows at once needs of them.
func RowFloats(pr *Program) int { return pr.rowFloats }

// Lists calls f on every list a lowered program keeps in its tree, naming
// what it holds, with its length and capacity: node lists, a statement's
// SUMs, reads, row ops and loops, a communication position's ops, an op's
// entries and slots, an entry's bounds, steps and need, a SUM's section,
// a loop's clamp and row statements and a nest's lists.
func Lists(pr *Program, f func(what string, n, c int)) { lists(pr.Body, f) }

func lists(nodes []Node, f func(string, int, int)) {
	f("node list", len(nodes), cap(nodes))
	sums := func(ss []Sum) {
		f("SUM list", len(ss), cap(ss))
		for _, s := range ss {
			f("SUM section", len(s.Sec.Dims), cap(s.Sec.Dims))
		}
	}
	comm := func(c *Comm) {
		if c == nil {
			return
		}
		f("op list", len(c.Ops), cap(c.Ops))
		for _, op := range c.Ops {
			f("entry list", len(op.Entries), cap(op.Entries))
			f("slot list", len(op.Slots), cap(op.Slots))
			for _, es := range op.Entries {
				f("section lower bounds", len(es.Lo), cap(es.Lo))
				f("section upper bounds", len(es.Hi), cap(es.Hi))
				f("section steps", len(es.Step), cap(es.Step))
				f("entry need", len(es.need), cap(es.need))
			}
		}
	}
	for _, n := range nodes {
		switch n := n.(type) {
		case *Comm:
			comm(n)
		case *Stmt:
			sums(n.Sums)
			f("read list", len(n.reads), cap(n.reads))
			f("row ops", len(n.row), cap(n.row))
			f("statement loops", len(n.loops), cap(n.loops))
		case *Loop:
			comm(n.Pre)
			comm(n.Head)
			f("clamp", len(n.Clamp), cap(n.Clamp))
			f("row statements", len(n.Row), cap(n.Row))
			if nest := n.Nest; nest != nil {
				f("nest loops", len(nest.loops), cap(nest.loops))
				f("nest up", len(nest.up), cap(nest.up))
				f("nest statements", len(nest.stmts), cap(nest.stmts))
				f("nest loopOf", len(nest.loopOf), cap(nest.loopOf))
				f("nest slots", len(nest.slots), cap(nest.slots))
				f("nest proofs", len(nest.proofs), cap(nest.proofs))
			}
			lists(n.Body, f)
		case *If:
			sums(n.Sums)
			lists(n.Then, f)
			lists(n.Else, f)
		}
	}
}

// FrameLists calls f on every table and scratch slice a frame carves from
// its slabs, naming it, with its length and capacity.
func FrameLists(fr *Frame, f func(what string, n, c int)) {
	for what, s := range map[string][]int{"Ints": fr.Ints, "ranges": fr.ranges, "memo": fr.memo, "idx": fr.idx,
		"rowRuns": fr.rowRuns, "boxCur": fr.boxCur, "boxStep": fr.boxStep, "boxOff": fr.boxOff} {
		f(what, len(s), cap(s))
	}
	for what, s := range map[string][]float64{"Reals": fr.Reals, "Sums": fr.Sums, "rowFloats": fr.rowFloats, "boxLeaf": fr.boxLeaf} {
		f(what, len(s), cap(s))
	}
	for what, s := range map[string][]bool{"Bound": fr.Bound, "Set": fr.Set, "live": fr.live, "busy": fr.busy} {
		f(what, len(s), cap(s))
	}
	f("dims", len(fr.dims), cap(fr.dims))
	f("rowStack", len(fr.rowStack), cap(fr.rowStack))
}

// Forms calls f on every affine form of a lowered program, naming where
// it sits: loop bounds and steps, the subscripts and folded offset of
// every array reference, the bounds of every communicated section and
// SUM section.
func Forms(pr *Program, f func(where string, a *Affine)) { forms(pr.Body, f) }

func forms(nodes []Node, f func(string, *Affine)) {
	ref := func(r *ArrayRef) {
		for i := range r.Subs {
			f(r.Lay.Name+" subscript", &r.Subs[i].Affine)
		}
		f(r.Lay.Name+" offset", &r.off)
	}
	sums := func(ss []Sum) {
		for _, s := range ss {
			for i := range s.Sec.Dims {
				d := &s.Sec.Dims[i]
				f("sum section", &d.Lo.Affine)
				f("sum section", &d.Hi.Affine)
				f("sum section", &d.Step.Affine)
			}
		}
	}
	comm := func(c *Comm) {
		if c == nil {
			return
		}
		for _, op := range c.Ops {
			for _, es := range op.Entries {
				for i := range es.Lo {
					f("section", &es.Lo[i])
					f("section", &es.Hi[i])
				}
			}
		}
	}
	for _, n := range nodes {
		switch n := n.(type) {
		case *Comm:
			comm(n)
		case *Loop:
			comm(n.Pre)
			comm(n.Head)
			f("loop bound", &n.Lo.Affine)
			f("loop bound", &n.Hi.Affine)
			f("loop step", &n.Step.Affine)
			forms(n.Body, f)
		case *Stmt:
			sums(n.Sums)
			if n.LHS != nil {
				ref(n.LHS)
			}
			for _, r := range n.reads {
				ref(r)
			}
		case *If:
			sums(n.Sums)
			forms(n.Then, f)
			forms(n.Else, f)
		}
	}
}
