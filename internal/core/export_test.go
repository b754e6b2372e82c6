package core

import (
	"fmt"

	"gcao/internal/asd"
	"gcao/internal/dep"
	"gcao/internal/sem"
	"gcao/internal/ssa"
)

// ExpandFromDims is the reference SectionAt for the table tests: it
// expands the entry's fully symbolic section afresh, loop by loop from
// the innermost down to level, the way SectionAt did before the
// per-level tables (which indexed out of range below level 0; the table
// reads a negative level as 0, and so does this).
func (e *Entry) ExpandFromDims(a *Analysis, level int) asd.SymSection {
	dims := append([]asd.SymDim(nil), e.dims...)
	loops := e.Use().Stmt.Loops
	for li := len(loops) - 1; li >= max(level, 0); li-- {
		b, v := a.loopBound[loops[li].ID], loops[li].Var()
		if !b.ok {
			continue
		}
		for di, d := range dims {
			if d.Lo.CoefOf(v) != 0 || d.Hi.CoefOf(v) != 0 {
				dims[di] = expandDim(d, v, b.lo, b.hi, b.step)
			}
		}
	}
	return asd.SymSection{Dims: dims}
}

// AnalyzeCounting is Analyze, also reporting how many times its
// dependence memo evaluated Directions.
func (s *Skeleton) AnalyzeCounting(u *sem.Unit) (*Analysis, int, error) {
	d := dep.New(u)
	a, err := s.analyze(u, nil, d)
	return a, d.Evaluations(), err
}

// Range is what the analysis derives for one communication entry's
// placement.
type Range struct {
	CommLevel        int
	Latest, Earliest Position
	EarliestDef      ssa.Def
	Candidates       []Position
}

// RangeOf returns an entry's range as the analysis computed it.
func RangeOf(e *Entry) Range {
	return Range{e.CommLevel, e.Latest, e.Earliest, e.EarliestDef, e.Candidates}
}

// ExhaustiveRanges recomputes the range of every entry CommEntries lists
// the exhaustive way, as the analysis did before it skipped queries whose
// answer cannot change the result: CommLevel is the deepest DepLevel over
// every reaching regular def of every use, and Fig. 8(b)'s φ test tries
// every order of the φ's parameters with every Rcount walked to its end.
// Dependences are answered from scratch by the table-less analysis, so no
// class memo is involved; the entries are copied, never written.
func (a *Analysis) ExhaustiveRanges() ([]Range, error) {
	o := &oracle{a: a, dep: &dep.Analysis{Unit: a.Unit, Forms: a.Forms}}
	w := a.newWalkScratch()
	out := make([]Range, 0, len(a.comm))
	for _, orig := range a.comm {
		e := *orig
		if e.Kind == KindReduce {
			a.computeReduceRange(&e)
		} else {
			o.latest(&e, w)
			if err := o.earliest(&e, w); err != nil {
				return nil, err
			}
			if !a.posDominates(e.Earliest, e.Latest) && e.Earliest != e.Latest {
				e.Earliest = e.Latest
				e.EarliestDef = nil
			}
		}
		k, err := a.candidatePath(&e, w)
		if err != nil {
			return nil, err
		}
		e.Candidates = nil
		if k > 0 {
			e.Candidates = a.computeCandidates(&e, w, make([]Position, 0, k))
		}
		out = append(out, RangeOf(&e))
	}
	return out, nil
}

// oracle holds the exhaustive walks ExhaustiveRanges runs.
type oracle struct {
	a   *Analysis
	dep *dep.Analysis
}

func (o *oracle) latest(e *Entry, w *walkScratch) {
	level := 0
	for _, u := range e.Uses {
		w.regs, _ = dep.ReachingRegularDefs(u, &w.seen, w.regs[:0])
		for _, d := range w.regs {
			if l := o.dep.DepLevel(d, u); l > level {
				level = l
			}
		}
	}
	u := e.Use()
	if level > u.Stmt.NL() {
		level = u.Stmt.NL()
	}
	e.CommLevel = level
	if level == u.Stmt.NL() {
		e.Latest = Position{Block: u.Stmt.Block, After: u.Stmt.Index - 1}
		return
	}
	pre := u.Stmt.Loops[level].PreHeader
	e.Latest = Position{Block: pre, After: len(pre.Stmts) - 1}
}

func (o *oracle) earliest(e *Entry, w *walkScratch) error {
	var best ssa.Def
	var bestPos Position
	for _, u := range e.Uses {
		w.seen.Clear()
		d := o.from(u.Reaching, u, w)
		if d == nil {
			return fmt.Errorf("no earliest def for %s", u)
		}
		pos := o.a.defPosition(d)
		if best == nil || o.a.posDominates(bestPos, pos) {
			best, bestPos = d, pos
		}
	}
	e.EarliestDef, e.Earliest = best, bestPos
	return nil
}

func (o *oracle) from(d ssa.Def, u *ssa.Use, w *walkScratch) ssa.Def {
	if d == nil || !w.seen.Mark(d) {
		return nil
	}
	if o.test(d, u, w) {
		return d
	}
	switch d := d.(type) {
	case *ssa.RegularDef:
		return o.from(d.Input, u, w)
	case *ssa.PhiDef:
		for _, arg := range d.Args {
			if found := o.from(arg, u, w); found != nil {
				return found
			}
		}
	}
	return nil
}

func (o *oracle) test(d ssa.Def, u *ssa.Use, w *walkScratch) bool {
	switch d := d.(type) {
	case *ssa.EntryDef:
		return true
	case *ssa.RegularDef:
		return o.dep.IsArrayDep(d, u, ssa.CNL(d, u))
	case *ssa.PhiDef:
		w.order = w.order[:0]
		for i := range d.Args {
			w.order = append(w.order, i)
		}
		return o.tryOrders(d, u, ssa.CNL(d, u), w, 0)
	}
	return false
}

func (o *oracle) tryOrders(d *ssa.PhiDef, u *ssa.Use, level int, w *walkScratch, k int) bool {
	order := w.order
	if k == len(order) {
		w.visit.Clear()
		w.visit.Mark(d)
		positives := 0
		for _, i := range order {
			if o.rcount(d.Args[i], u, level, &w.visit) > 0 {
				positives++
			}
		}
		return positives >= 2
	}
	for i := k; i < len(order); i++ {
		order[k], order[i] = order[i], order[k]
		if o.tryOrders(d, u, level, w, k+1) {
			return true
		}
		order[k], order[i] = order[i], order[k]
	}
	return false
}

func (o *oracle) rcount(d ssa.Def, u *ssa.Use, level int, visit *ssa.Marks) int {
	if d == nil || !visit.Mark(d) {
		return 0
	}
	switch d := d.(type) {
	case *ssa.EntryDef:
		return 1
	case *ssa.PhiDef:
		n := 0
		for _, arg := range d.Args {
			n += o.rcount(arg, u, level, visit)
		}
		return n
	case *ssa.RegularDef:
		if o.dep.IsArrayDep(d, u, level) {
			return 1
		}
		return o.rcount(d.Input, u, level, visit)
	}
	return 0
}
