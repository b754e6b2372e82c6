package core

import (
	"fmt"
	"log/slog"
	"slices"

	"gcao/internal/asd"
	"gcao/internal/ast"
	"gcao/internal/cfg"
	"gcao/internal/dep"
	"gcao/internal/dom"
	"gcao/internal/heapsize"
	"gcao/internal/obs"
	"gcao/internal/scalarize"
	"gcao/internal/sem"
	"gcao/internal/ssa"
)

// Skeleton is the part of a routine's analysis that its text fixes: the
// scalarized body, augmented CFG, dominator tree, SSA form (§4.1) and the
// forms of the subscripts that mention no parameter. Nothing in it holds an
// evaluated bound, so when the scalarizer expanded no array statement
// (SizeFree) one Skeleton serves every binding of the routine's parameters.
//
// A Skeleton is never written after NewSkeleton returns: Analyze, Place,
// the estimator, the bound, plan lowering and both execution backends only
// read it, from any number of goroutines and bindings at once.
type Skeleton struct {
	Scal *scalarize.Result
	G    *cfg.Graph
	Dom  *dom.Tree
	SSA  *ssa.Info
	// Forms is the structural half of the subscript-form table; each
	// Analysis derives the parameter-reading rest under its own binding.
	Forms dep.Forms
}

// Analysis holds the full communication analysis of one routine under one
// parameter binding: its Skeleton, the dependence context, and the
// classified communication entries with their earliest/latest/candidate
// positions. One Analysis can be placed under several strategies (Place)
// without re-analysis.
//
// An Analysis is immutable once Skeleton.Analyze returns: the loop bounds
// and every entry's per-level section and byte tables are filled
// eagerly during construction, and Place, the estimator, the bound and
// plan lowering only read them. It carries no lock; any number of
// goroutines may use one Analysis at once (the serving layer caches and
// shares analyses across requests, and skeletons across analyses).
type Analysis struct {
	*Skeleton
	Unit *sem.Unit
	Dep  *dep.Analysis

	// Entries lists every communication requirement, including entries
	// later coalesced into axis exchanges.
	Entries []*Entry

	// comm lists the entries that require placement: Entries less the
	// coalesced diagonals, in ID order (CommEntries).
	comm []*Entry

	// loopBound holds the compile-time bounds of every loop, indexed by
	// cfg.Loop.ID.
	loopBound []loopBound
	// slotBase numbers the positions of the graph densely in (block ID,
	// slot) order: position (b, after) is slot slotBase[b.ID]+after+1,
	// and the last element is the number of slots.
	slotBase []int

	// bytes counts the slabs Analyze carves the entries, their use lists,
	// offsets, sections, candidates and level tables from, and the
	// signatures and terms it makes for them.
	bytes int64
}

// Bytes returns what the analysis holds beside its Skeleton and Unit:
// itself, its dependence context, its lists and tables, and the slabs
// its entries are carved from.
func (a *Analysis) Bytes() int64 {
	return heapsize.Of(a) + heapsize.Of(a.Dep) + a.bytes + heapsize.Slice(a.Entries) +
		heapsize.Slice(a.comm) + heapsize.Slice(a.loopBound) + heapsize.Slice(a.slotBase)
}

// loopBound is one loop's bounds evaluated under the routine
// parameters, normalized to a positive step; ok is false when a bound
// is not a compile-time constant.
type loopBound struct {
	lo, hi, step int
	ok           bool
}

// NewAnalysis runs the front half of the compiler on an analyzed
// routine: scalarization, CFG construction, dominators, SSA,
// classification, and the earliest/latest/candidate computation for
// every entry.
func NewAnalysis(u *sem.Unit) (*Analysis, error) {
	s, err := NewSkeleton(u, nil)
	if err != nil {
		return nil, err
	}
	return s.Analyze(u, nil)
}

// NewSkeleton runs the steps that read the program text only:
// scalarization, CFG construction, dominators, SSA, parameter-free
// subscript forms. Of u it reads the routine, the array names and ranks,
// and — only for the array statements it expands — the bounds.
func NewSkeleton(u *sem.Unit, rec *obs.Recorder) (*Skeleton, error) {
	end := rec.Start("scalarize")
	scal, err := scalarize.Scalarize(u)
	end()
	if err != nil {
		return nil, err
	}
	end = rec.Start("cfg")
	g := cfg.Build(scal.Body)
	err = g.Validate()
	end()
	if err != nil {
		return nil, err
	}
	end = rec.Start("dom")
	t := dom.New(g)
	end()
	end = rec.Start("ssa")
	info := ssa.Build(g, t, func(name string) bool {
		_, ok := u.Arrays[name]
		return ok
	})
	err = info.Validate()
	end()
	if err != nil {
		return nil, err
	}
	end = rec.Start("dep")
	forms := dep.NewForms(u.Routine.Params, info)
	end()
	return &Skeleton{Scal: scal, G: g, Dom: t, SSA: info, Forms: forms}, nil
}

// SizeFree reports whether the skeleton is the same for every binding of
// the routine's parameters: the scalarizer bakes evaluated bounds and
// offsets into the loops it creates for array-section statements, and
// evaluates nothing otherwise.
func (s *Skeleton) SizeFree() bool { return s.Scal.StmtsExpanded == 0 }

// Bytes returns what the skeleton holds beside its routine: itself, the
// scalarizer's new nodes, the graph, the dominator tree, the SSA form and
// the structural subscript forms.
func (s *Skeleton) Bytes() int64 {
	return heapsize.Of(s) + s.Scal.Bytes() + s.G.Bytes() + s.Dom.Bytes() + s.SSA.Bytes() + s.Forms.Bytes()
}

// Analyze instantiates the skeleton under u's parameter binding — the
// steps that read sizes: loop bounds, dependence levels, classification,
// the earliest/latest/candidate computation and the per-level section
// tables of every entry. u must be an analysis of the routine the skeleton
// was built from (any binding when the skeleton is SizeFree, else the one
// NewSkeleton saw).
func (s *Skeleton) Analyze(u *sem.Unit, rec *obs.Recorder) (*Analysis, error) {
	return s.analyze(u, rec, dep.New(u))
}

// analyze is Analyze asking its dependence queries of d, a remembering
// analysis under u's binding that it drops on return.
func (s *Skeleton) analyze(u *sem.Unit, rec *obs.Recorder, d *dep.Analysis) (*Analysis, error) {
	a := &Analysis{
		Skeleton:  s,
		Unit:      u,
		Dep:       d,
		loopBound: make([]loopBound, len(s.G.Loops)),
	}
	a.Dep.Forms = s.Forms
	for _, l := range s.G.Loops {
		a.loopBound[l.ID] = evalLoopBound(u, l)
	}
	end := rec.Start("entries")
	err := a.buildEntries()
	if err == nil {
		a.coalesceDiagonals()
	}
	end()
	if err != nil {
		return nil, err
	}
	a.comm = make([]*Entry, 0, len(a.Entries))
	for _, e := range a.Entries {
		if !e.Coalesced {
			a.comm = append(a.comm, e)
		}
	}
	a.comm = slices.Clip(a.comm) // an append by a caller copies
	a.slotBase = make([]int, len(s.G.Blocks)+1)
	for i, b := range s.G.Blocks {
		a.slotBase[i+1] = a.slotBase[i] + len(b.Stmts) + 1
	}
	end = rec.Start("earliest-latest")
	w := s.newWalkScratch()
	for _, e := range a.comm {
		if err := a.computePlacementRange(e, w); err != nil {
			end()
			return nil, err
		}
	}
	// Every entry's candidates are carved from one slab: a first walk up
	// the dominator paths sizes it, a second fills it.
	n := 0
	for _, e := range a.comm {
		k, err := a.candidatePath(e, w)
		if err != nil {
			end()
			return nil, err
		}
		n += k
	}
	slab := make([]Position, n)
	a.bytes += heapsize.Slice(slab)
	for _, e := range a.comm {
		if k, _ := a.candidatePath(e, w); k > 0 {
			e.Candidates, slab = a.computeCandidates(e, w, slab[:0:k]), slab[k:]
		}
	}
	end()
	end = rec.Start("level-tables")
	levels, dims, grows := a.levelSlabs()
	for _, e := range a.Entries {
		a.buildLevelTable(e, &levels, &dims, &grows)
	}
	end()
	// Every dependence query has been asked: drop the tables dep.New
	// remembered them in, so nothing on a shared Analysis is ever written.
	a.Dep = &dep.Analysis{Unit: u, Forms: s.Forms}
	rec.Add("analysis.entries", int64(len(a.Entries)))
	rec.Add("analysis.comm_entries", int64(len(a.comm)))
	rec.Add("analysis.coalesced", int64(len(a.Entries)-len(a.comm)))
	rec.Event(slog.LevelInfo, "analysis.done",
		slog.String("routine", u.Routine.Name),
		slog.Int("entries", len(a.Entries)),
		slog.Int("comm_entries", len(a.comm)))
	return a, nil
}

// evalLoopBound evaluates a loop's bounds at compile time.
func evalLoopBound(u *sem.Unit, l *cfg.Loop) loopBound {
	lo, err1 := u.EvalInt(l.Do.Lo)
	hi, err2 := u.EvalInt(l.Do.Hi)
	if err1 != nil || err2 != nil {
		return loopBound{step: 1}
	}
	step := 1
	if l.Do.Step != nil {
		s, err := u.EvalInt(l.Do.Step)
		if err != nil || s == 0 {
			return loopBound{step: 1}
		}
		step = s
	}
	if step < 0 {
		lo, hi, step = hi, lo, -step
	}
	return loopBound{lo: lo, hi: hi, step: step, ok: true}
}

// LoopTrip returns the compile-time trip count of a loop, when its
// bounds are constant under the routine parameters.
func (a *Analysis) LoopTrip(l *cfg.Loop) (int, bool) {
	b := a.loopBound[l.ID]
	if !b.ok {
		return 0, false
	}
	if b.lo > b.hi {
		return 0, true
	}
	return (b.hi-b.lo)/b.step + 1, true
}

// TripProduct returns how many times a block inside loop l executes:
// the product of the trip counts of l and the loops enclosing it (1
// when l is nil, at top level). It fails on the innermost loop whose
// bounds are not constant.
func (a *Analysis) TripProduct(l *cfg.Loop) (float64, error) {
	execs := 1.0
	for ; l != nil; l = l.Parent {
		trip, ok := a.LoopTrip(l)
		if !ok {
			return 0, fmt.Errorf("core: loop %q has non-constant bounds", l.Var())
		}
		execs *= float64(trip)
	}
	return execs, nil
}

// walkScratch is what the Earliest/Latest walks write as they go: visit
// sets over the skeleton's DefIDs and buffers they reuse from entry to
// entry. One Analyze call owns it and drops it on return. The Skeleton
// (with its ssa.Info) is shared by concurrent Analyze calls and the
// finished Analysis by concurrent Place calls, so neither holds it.
type walkScratch struct {
	seen  ssa.Marks         // the reaching walk's and earliestDef's visited defs
	visit ssa.Marks         // rcount's visit set, shared across a φ's parameters
	regs  []*ssa.RegularDef // the reaching walk's result
	order []int             // test's order of a φ's parameters
	chain []*cfg.Block      // computeCandidates' dominator path
	pair  [2]int            // order's array: a block has at most two predecessors
}

// newWalkScratch sizes the walks' buffers once: the reaching walk meets
// each regular def at most once and a dominator path each block.
func (s *Skeleton) newWalkScratch() *walkScratch {
	w := &walkScratch{regs: make([]*ssa.RegularDef, 0, len(s.SSA.Defs)), chain: make([]*cfg.Block, 0, len(s.G.Blocks))}
	w.order = w.pair[:0]
	s.SSA.NewMarks(&w.seen, &w.visit)
	return w
}

// ---------------------------------------------------------------------
// Latest position (§4.2)

// computeLatest determines CommLevel(u) and the latest position for an
// entry, which is as shallow as possible: just before the outermost
// loop with no true dependence on the use, or just before the
// statement when dependences pin it at full depth. CommLevel is the
// deepest DepLevel over every reaching regular def of every use, capped
// at the primary use's nesting level; since DepLevel(d, u) ≤ CNL(d, u),
// a def that shares no loop deeper than the level found so far is not
// asked about, and the walk stops once the level reaches the cap.
func (a *Analysis) computeLatest(e *Entry, w *walkScratch) {
	u := e.Use()
	level, top := 0, u.Stmt.NL()
	for _, v := range e.Uses {
		if level >= top {
			break
		}
		w.regs, _ = dep.ReachingRegularDefs(v, &w.seen, w.regs[:0])
		for _, d := range w.regs {
			if ssa.CNL(d, v) <= level {
				continue
			}
			if l := a.Dep.DepLevel(d, v); l > level {
				if level = l; level >= top {
					break
				}
			}
		}
	}
	level = min(level, top)
	e.CommLevel = level
	if level == top {
		e.Latest = Position{Block: u.Stmt.Block, After: u.Stmt.Index - 1}
		return
	}
	loop := u.Stmt.Loops[level] // loop at Depth level+1
	pre := loop.PreHeader
	e.Latest = Position{Block: pre, After: len(pre.Stmts) - 1}
}

// ---------------------------------------------------------------------
// Earliest position (§4.3, Fig. 8)

// computeEarliest finds the earliest single dominating communication
// point for the entry: the first definition, in a depth-first preorder
// walk back through the SSA chain from the use, for which Test returns
// true (Claim 4.1).
func (a *Analysis) computeEarliest(e *Entry, w *walkScratch) error {
	var best ssa.Def
	var bestPos Position
	for _, u := range e.Uses {
		d := a.earliestDef(u, w)
		if d == nil {
			return fmt.Errorf("core: no earliest def for %s", u)
		}
		if !a.Dom.Dominates(d.DefBlock(), u.Stmt.Block) {
			return fmt.Errorf("core: earliest def %s does not dominate %s", d, u)
		}
		pos := a.defPosition(d)
		// Merged uses: keep the latest (most dominated) earliest point,
		// which is safe for every member.
		if best == nil || a.posDominates(bestPos, pos) {
			best, bestPos = d, pos
		}
	}
	e.EarliestDef = best
	e.Earliest = bestPos
	return nil
}

// earliestDef implements the walk of Fig. 8(a): visit defs backward
// from Reaching(u) in depth-first preorder; the first def passing Test
// is Earliest(u). The ENTRY pseudo-def always passes.
func (a *Analysis) earliestDef(u *ssa.Use, w *walkScratch) ssa.Def {
	w.seen.Clear()
	return a.earliestFrom(u.Reaching, u, w)
}

// earliestFrom continues earliestDef's walk at d, returning the first
// def passing Test or nil.
func (a *Analysis) earliestFrom(d ssa.Def, u *ssa.Use, w *walkScratch) ssa.Def {
	if d == nil || !w.seen.Mark(d) {
		return nil
	}
	if a.test(d, u, w) {
		return d
	}
	switch d := d.(type) {
	case *ssa.RegularDef:
		return a.earliestFrom(d.Input, u, w)
	case *ssa.PhiDef:
		for _, arg := range d.Args {
			if found := a.earliestFrom(arg, u, w); found != nil {
				return found
			}
		}
	}
	return nil
}

// test implements Fig. 8(b): a regular def is the earliest point when
// it carries a dependence at the common nesting level; a φ-def is the
// earliest point when two or more of its parameters reach distinct
// dependence sources over node-disjoint backpaths (counted by Rcount
// with a shared visit set).
func (a *Analysis) test(d ssa.Def, u *ssa.Use, w *walkScratch) bool {
	switch d := d.(type) {
	case *ssa.EntryDef:
		return true
	case *ssa.RegularDef:
		return a.Dep.IsArrayDep(d, u, ssa.CNL(d, u))
	case *ssa.PhiDef:
		// The visit set is shared across parameters so two positive
		// counts certify node-disjoint backpaths (Lemma 4.3). The
		// greedy order in which parameters consume shared prefixes
		// matters — e.g. at a φExit the zero-trip parameter must claim
		// the ENTRY-side path before the through-the-loop parameter
		// walks it — so we accept the test if any parameter ordering
		// yields two positives. Blocks in this structured CFG have at
		// most two predecessors, so this is at most two trials. The
		// first trial starts from the last parameter: at a loop header
		// the back edge, whose sources lie inside the loop, so the
		// parameter walked in full is the short one; at a φExit the
		// zero-trip edge, the order the φExit needs.
		w.order = w.order[:0]
		for i := len(d.Args) - 1; i >= 0; i-- {
			w.order = append(w.order, i)
		}
		return a.tryOrders(d, u, ssa.CNL(d, u), w, 0)
	}
	return false
}

// tryOrders tries every order of the φ's parameters that keeps
// w.order[:k] in place, reporting whether one yields two positive
// Rcounts. Only whether a count is positive matters, and the marks the
// last parameter's walk leaves are never read, so that walk stops at its
// first source; an order is abandoned once the parameters left cannot
// make two positives.
func (a *Analysis) tryOrders(d *ssa.PhiDef, u *ssa.Use, level int, w *walkScratch, k int) bool {
	order := w.order
	if k == len(order) {
		w.visit.Clear()
		w.visit.Mark(d)
		positives := 0
		for n, i := range order {
			left := len(order) - n
			if positives+left < 2 {
				return false
			}
			if a.rcount(d.Args[i], u, level, &w.visit, left == 1) > 0 {
				positives++
			}
		}
		return positives >= 2
	}
	for i := k; i < len(order); i++ {
		order[k], order[i] = order[i], order[k]
		if a.tryOrders(d, u, level, w, k+1) {
			return true
		}
		order[k], order[i] = order[i], order[k]
	}
	return false
}

// rcount implements Fig. 8(c): it counts dependence sources reachable
// through a φ parameter, visiting every definition at most once so
// that two positive parameter counts certify node-disjoint paths. With
// first set it stops at the first source, leaving the rest unvisited.
func (a *Analysis) rcount(d ssa.Def, u *ssa.Use, level int, visit *ssa.Marks, first bool) int {
	if d == nil || !visit.Mark(d) {
		return 0
	}
	switch d := d.(type) {
	case *ssa.EntryDef:
		return 1 // IsArrayDep is TRUE for the pseudo-def at ENTRY
	case *ssa.PhiDef:
		n := 0
		for _, arg := range d.Args {
			if n += a.rcount(arg, u, level, visit, first); first && n > 0 {
				break
			}
		}
		return n
	case *ssa.RegularDef:
		if a.Dep.IsArrayDep(d, u, level) {
			return 1
		}
		// All regular array defs are preserving: look through.
		return a.rcount(d.Input, u, level, visit, first)
	}
	return 0
}

// defPosition returns the position "immediately after d".
func (a *Analysis) defPosition(d ssa.Def) Position {
	switch d := d.(type) {
	case *ssa.EntryDef:
		return Position{Block: a.G.EntryBlock, After: -1}
	case *ssa.RegularDef:
		return Position{Block: d.Stmt.Block, After: d.Stmt.Index}
	case *ssa.PhiDef:
		return Position{Block: d.Blk, After: -1}
	}
	// Unreachable from any input: d comes from earliestDef, whose walk
	// only follows a use's ssa.Info chain, and an Info holds only the
	// three kinds above.
	panic("core: unknown def kind")
}

// ---------------------------------------------------------------------
// Candidate positions (§4.4, Fig. 9e)

// posDominates reports whether position p dominates (executes no later
// than) position q.
func (a *Analysis) posDominates(p, q Position) bool {
	if p.Block == q.Block {
		return p.After <= q.After
	}
	return a.Dom.StrictlyDominates(p.Block, q.Block)
}

// candidatePath walks the dominator tree from Latest(e)'s block up to
// Earliest(e)'s, leaving the blocks strictly between in w.chain, bottom
// up, and returns how many candidate positions the path holds: the
// length of the list computeCandidates fills.
func (a *Analysis) candidatePath(e *Entry, w *walkScratch) (int, error) {
	top, bottom := e.Earliest, e.Latest
	w.chain = w.chain[:0]
	if bottom.Block == top.Block {
		return max(bottom.After-top.After+1, 0), nil
	}
	n := bottom.After + 2
	c := a.Dom.IDom(bottom.Block)
	for c != nil && c != top.Block {
		w.chain = append(w.chain, c)
		n += len(c.Stmts) + 1
		c = a.Dom.IDom(c)
	}
	if c == nil {
		return 0, fmt.Errorf("core: dominator walk from %s missed earliest %s for %s", e.Latest, e.Earliest, e)
	}
	return n + len(c.Stmts) - top.After, nil
}

// computeCandidates marks every statement on the dominator-tree path
// from Latest(u) up to Earliest(u) (Claims 4.5–4.6), appending them to
// cands, earliest-first: Earliest through the end of its block, every
// position of the blocks between, Latest's block top through Latest.
// w.chain must hold e's path, as candidatePath leaves it.
func (a *Analysis) computeCandidates(e *Entry, w *walkScratch, cands []Position) []Position {
	top, bottom := e.Earliest, e.Latest
	if bottom.Block == top.Block {
		return appendPositions(cands, top.Block, top.After, bottom.After)
	}
	cands = appendPositions(cands, top.Block, top.After, len(top.Block.Stmts)-1)
	for i := len(w.chain) - 1; i >= 0; i-- {
		cands = appendPositions(cands, w.chain[i], -1, len(w.chain[i].Stmts)-1)
	}
	return appendPositions(cands, bottom.Block, -1, bottom.After)
}

// appendPositions appends the positions of block b after slots lo … hi.
func appendPositions(ps []Position, b *cfg.Block, lo, hi int) []Position {
	for k := lo; k <= hi; k++ {
		ps = append(ps, Position{Block: b, After: k})
	}
	return ps
}

func (a *Analysis) computePlacementRange(e *Entry, w *walkScratch) error {
	if e.Kind == KindReduce {
		a.computeReduceRange(e)
		return nil
	}
	a.computeLatest(e, w)
	if err := a.computeEarliest(e, w); err != nil {
		return err
	}
	// The earliest point may sit deeper than or past Latest only when
	// a dependence pins communication next to the use; clamp so the
	// candidate walk is well formed.
	if !a.posDominates(e.Earliest, e.Latest) && e.Earliest != e.Latest {
		e.Earliest = e.Latest
		e.EarliestDef = nil
	}
	return nil
}

// computeReduceRange places reduction communication per §6.2: the
// partial result is computed at the reduction statement, so the global
// combine may happen anywhere between that statement and the first use
// of the result — intervening redefinitions of the summed array cannot
// stale the already-computed partial. The prototype (like the paper's)
// sinks only within the defining basic block, which is exactly enough
// for adjacent reductions to land on a common point and combine ("as
// in gravity").
func (a *Analysis) computeReduceRange(e *Entry) {
	st := e.Use().Stmt
	e.CommLevel = st.NL()
	e.EarliestDef = nil
	e.Earliest = Position{Block: st.Block, After: st.Index}
	lhs := st.Assign.LHS.Name
	last := st.Index
	for k := st.Index + 1; k < len(st.Block.Stmts); k++ {
		if a.StmtReads(st.Block.Stmts[k], lhs, true) {
			break
		}
		last = k
	}
	e.Latest = Position{Block: st.Block, After: last}
}

// StmtReads reports whether a statement mentions the named scalar or
// array in its RHS or its target's subscripts. Without inSums it skips
// the arguments of SUMs over distributed arrays: a reduction gathers those
// where its statement stands, whenever its global sum settles.
func (a *Analysis) StmtReads(st *cfg.Stmt, name string, inSums bool) bool {
	return a.mentions(st.Assign.RHS, name, inSums) || a.subsMention(st.Assign.LHS.Subs, name, inSums)
}

func (a *Analysis) mentions(e ast.Expr, name string, inSums bool) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == name
	case *ast.Ref:
		return e.Name == name || a.subsMention(e.Subs, name, inSums)
	case *ast.BinExpr:
		return a.mentions(e.X, name, inSums) || a.mentions(e.Y, name, inSums)
	case *ast.UnaryExpr:
		return a.mentions(e.X, name, inSums)
	case *ast.Call:
		if !inSums && e.Func == "sum" && len(e.Args) == 1 {
			if r, ok := e.Args[0].(*ast.Ref); ok && a.Unit.Arrays[r.Name] != nil && a.Unit.Arrays[r.Name].Dist != nil {
				return false
			}
		}
		for _, x := range e.Args {
			if a.mentions(x, name, inSums) {
				return true
			}
		}
	}
	return false
}

func (a *Analysis) subsMention(subs []ast.Sub, name string, inSums bool) bool {
	for _, s := range subs {
		if a.mentions(s.X, name, inSums) || a.mentions(s.Lo, name, inSums) || a.mentions(s.Hi, name, inSums) || a.mentions(s.Step, name, inSums) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Diagonal coalescing and identical-entry merging (pHPF front-end
// optimizations the paper assumes: message coalescing subsumes
// diagonal NNC using augmented axis exchanges, §2.2).

func (a *Analysis) coalesceDiagonals() {
	// A counting pass bounds what coalescing makes: one carrier link per
	// non-zero component of a diagonal, each possibly a new axis entry.
	naxis, nlinks := 0, 0
	for _, e := range a.Entries {
		if e.Kind == KindShift {
			if nz := nonZeroCount(e.Offsets); nz == 1 {
				naxis++
			} else if nz >= 2 {
				nlinks += nz
			}
		}
	}
	if nlinks == 0 {
		return
	}
	// The axis entries, keyed by (array, grid dim, sign, home loop):
	// slots chained per home loop from heads, indexed by loop ID + 1 (0
	// for statements outside every loop).
	t := axisTable{heads: make([]int32, len(a.G.Loops)+1), slots: make([]axisSlot, 0, naxis+nlinks)}
	for _, e := range a.Entries {
		if e.Kind == KindShift && nonZeroCount(e.Offsets) == 1 {
			if i := t.find(e.Array, e.Map.GridDim, e.Map.Sign, e); i < 0 {
				t.add(e, e.Map.GridDim, e.Map.Sign)
			} else if e.Map.Width > t.slots[i].e.Map.Width {
				t.slots[i].e = e
			}
		}
	}
	rank := a.Unit.Grid.Rank()
	made := make([]Entry, nlinks)
	offsets := make([]int, nlinks*rank)
	carriers := make([]*Entry, nlinks)
	links := make([]carrierLink, 0, nlinks)
	a.bytes += heapsize.Slice(made) + heapsize.Slice(offsets) + heapsize.Slice(carriers)
	a.Entries = slices.Grow(a.Entries, nlinks)
	for _, e := range a.Entries {
		if e.Kind != KindShift || nonZeroCount(e.Offsets) < 2 {
			continue
		}
		e.Coalesced = true
		e.Carriers = carve(&carriers, nonZeroCount(e.Offsets))[:0]
		for g, c := range e.Offsets {
			if c == 0 {
				continue
			}
			sign := 1
			if c < 0 {
				sign = -1
			}
			i := t.find(e.Array, g, sign, e)
			if i < 0 {
				// Synthesize the axis exchange the diagonal rides on.
				carrier := &carve(&made, 1)[0]
				off := carve(&offsets, len(e.Offsets))
				off[g] = c
				*carrier = Entry{
					ID:      len(a.Entries),
					Array:   e.Array,
					Kind:    KindShift,
					Uses:    e.Uses,
					Offsets: off,
					Map:     shiftMapping(a.Unit.Grid.Shape, g, c),
					dims:    e.dims,
				}
				a.Entries = append(a.Entries, carrier)
				i = t.add(carrier, g, sign)
			} else {
				// The carrier now also serves the diagonal's reads, so
				// its placement range must honour the diagonal's
				// dependences too (a same-sweep carried diagonal pins
				// the exchange inside the carrying loop).
				t.slots[i].extra += len(e.Uses)
				links = append(links, carrierLink{slot: i, from: e})
			}
			carrier := t.slots[i].e
			if w := abs(c); w > carrier.Map.Width {
				carrier.Map.Width = w
			}
			// Augment the carrier's section so the axis exchanges
			// cover the diagonal's corner data (the "augmented form of
			// the NNC along the two axes", §2.2).
			if hull, _, ok := (asd.SymSection{Dims: carrier.dims}).Hull(asd.SymSection{Dims: e.dims}); ok {
				carrier.dims = hull.Dims
				a.bytes += heapsize.Slice(hull.Dims)
			}
			e.Carriers = append(e.Carriers, carrier)
		}
	}
	// Each carrier's use list grows, in diagonal order, into one list
	// carved from a slab sized by the counts.
	n := 0
	for _, s := range t.slots {
		if s.extra > 0 {
			n += len(s.e.Uses) + s.extra
		}
	}
	uses := make([]*ssa.Use, n)
	a.bytes += heapsize.Slice(uses)
	for _, s := range t.slots {
		if s.extra > 0 {
			s.e.Uses = append(carve(&uses, len(s.e.Uses)+s.extra)[:0], s.e.Uses...)
		}
	}
	for _, l := range links {
		c := t.slots[l.slot].e
		c.Uses = append(c.Uses, l.from.Uses...)
	}
}

// axisTable is coalesceDiagonals' index of axis exchanges: slots holds
// one per (array, grid dim, sign, home loop), heads the first slot of
// each home loop (index + 1, 0 for none).
type axisTable struct {
	heads []int32
	slots []axisSlot
}

// axisSlot is one axis exchange a diagonal may ride on; extra counts the
// diagonals' uses it takes on.
type axisSlot struct {
	e         *Entry
	dim, sign int
	extra     int
	next      int32 // index + 1 of the next slot of the same home loop
}

// carrierLink records that a diagonal rides on an existing carrier.
type carrierLink struct {
	slot int
	from *Entry
}

// homeSlot returns the heads index of an entry's home loop: the
// innermost loop of its primary use, the nest.
func homeSlot(e *Entry) int {
	if loops := e.Use().Stmt.Loops; len(loops) > 0 {
		return loops[len(loops)-1].ID + 1
	}
	return 0
}

// find returns the slot of the axis exchange of (array, dim, sign) in
// e's home loop, or −1.
func (t *axisTable) find(array string, dim, sign int, e *Entry) int {
	for i := t.heads[homeSlot(e)]; i != 0; i = t.slots[i-1].next {
		if s := &t.slots[i-1]; s.dim == dim && s.sign == sign && s.e.Array == array {
			return int(i - 1)
		}
	}
	return -1
}

// add files e as the axis exchange of (dim, sign) in its home loop and
// returns its slot.
func (t *axisTable) add(e *Entry, dim, sign int) int {
	h := homeSlot(e)
	t.slots = append(t.slots, axisSlot{e: e, dim: dim, sign: sign, next: t.heads[h]})
	t.heads[h] = int32(len(t.slots))
	return len(t.slots) - 1
}

func nonZeroCount(xs []int) int {
	n := 0
	for _, x := range xs {
		if x != 0 {
			n++
		}
	}
	return n
}

// CommEntries returns the entries that require placement (excluding
// coalesced diagonals), in ID order. The slice is built once by Analyze
// and shared by every caller: it is read-only.
func (a *Analysis) CommEntries() []*Entry { return a.comm }

// slot returns the dense number of a position (see slotBase).
func (a *Analysis) slot(p Position) int { return a.slotBase[p.Block.ID] + p.After + 1 }
