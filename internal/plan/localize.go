package plan

import (
	"slices"

	"gcao/internal/dist"
	"gcao/internal/heapsize"
	"gcao/internal/runtime"
)

// Owner-computes localization (paper §4.8: each processor runs the
// iterations whose left-hand side it owns).
//
// A loop nest is pure owner-computes when, apart from the stores
// themselves, what a processor does in it cannot depend on, or be seen
// by, any other processor before the nest ends:
//
//  1. nothing in it synchronizes or diverges: no communication group at
//     any position inside, no distributed SUM, no replicated-array
//     store, no branch, and every statement assigns a distributed array
//     (a scalar assigned under shrunken bounds would differ between
//     processors);
//  2. its iteration space is a box known on entry: every loop steps by
//     a constant ±1 between bounds that no loop of the nest changes,
//     and every left-hand subscript is v+c for a distinct variable v of
//     the nest or does not vary in the nest at all;
//  3. no processor reads in it an element another processor writes in
//     it: an array written in the nest is read only where the reading
//     statement's own left-hand side puts the owner — same layout, same
//     subscript in every distributed dimension.
//
// Inside such a nest a processor may skip any iteration whose element
// it does not own: skipping changes no value it computes (3), no
// decision it takes (1), and the one effect a skipped iteration has —
// clearing the processor's own validity bit of the element — commutes
// to the end of the nest, because by (3) nobody tests those bits in
// between and by (1) no message carries them out. What the bits must
// read after the nest does not depend on the order of the writes
// either: every written element is valid on its owner and stale on
// everybody else. So Leave clears, per statement, the box of written
// elements minus the part the processor owns (2 makes it a box), and
// the validity planes are exactly what the full walk leaves. Stale-read
// detection is therefore unchanged, inside the nest and after it.
//
// Each loop whose variable subscripts a BLOCK dimension of every
// statement below it gets per-processor bounds (Clamp): the hull of
// those statements' owned ranges, shifted by the subscript constants. A
// statement keeps its ownership Guard unless every distributed
// dimension of its target is BLOCK and is subscripted by a loop whose
// clamp is exactly the statement's own range, for every processor.
// CYCLIC dimensions are never clamped and always guarded.

// Nest is the per-nest data of a pure owner-computes loop nest,
// attached to its outermost loop.
type Nest struct {
	loops []*Loop // preorder, root first
	up    []int   // index in loops of the loop directly around, -1 for the root
	stmts []*Stmt
	// loopOf maps an integer slot to the index in loops of the nest
	// loop whose variable it is, -1 for slots the nest does not vary.
	loopOf []int
	// slots lists the slots Enter reads that the nest does not vary: the
	// variables from around it in loop bounds and verified subscripts. At
	// memo a frame's memo keeps the nest's entry key: the processor of the
	// last entry that verified, plus one, then Frame.Unchanged's record of
	// slots, the hull of each proof and, from written, each statement's
	// box of written elements.
	slots         []int
	memo, written int
	// proofs are the reads Enter proves valid, one of each distinct
	// hoisted read of a distributed array per loop body, but those on the
	// element their statement stores, which its processor owns.
	proofs []proof
}

// proof is a read Enter proves valid: its hull over the frame's
// processor's part of the nest's box is at at in a frame's memo.
type proof struct {
	ref  *ArrayRef
	loop *Loop // the innermost loop around its statements
	at   int
}

// full and mine return a nest loop's iteration range for the nest's last
// entry: the full range, normalized to ascending, and the part the frame's
// processor executes. Its live flag says the loop body runs at all
// (neither the loop nor a nest loop around it is zero-trip), busy that it
// runs on the frame's processor.
func (fr *Frame) full(lp *Loop) Range { r := fr.ranges[4*lp.Src.ID:]; return Range{Lo: r[0], Hi: r[1]} }
func (fr *Frame) mine(lp *Loop) Range { r := fr.ranges[4*lp.Src.ID:]; return Range{Lo: r[2], Hi: r[3]} }

// localize finds the maximal pure nests among the nodes, top down.
func (lw *lowerer) localize(nodes []Node) {
	for _, n := range nodes {
		switch n := n.(type) {
		case *Loop:
			if nest := lw.pureNest(n); nest != nil {
				n.Nest = nest
				lw.clamp(nest)
				lw.entryKey(nest)
				for l, lp := range nest.loops {
					if lp.Row = lw.rowBody(lp); lp.Row != nil {
						lw.boxChain(nest, l)
					}
				}
			} else {
				lw.localize(n.Body)
			}
		case *If:
			lw.localize(n.Then)
			lw.localize(n.Else)
		}
	}
}

// pureNest returns the nest rooted at root when it satisfies the three
// purity rules, else nil. The candidate is collected in the lowerer's
// scratch, which a nest that qualifies copies.
func (lw *lowerer) pureNest(root *Loop) *Nest {
	nest := &lw.cand
	nest.loops, nest.up, nest.stmts = nest.loops[:0], nest.up[:0], nest.stmts[:0]
	if nest.loopOf == nil {
		g := lw.pl.A.G
		nest.loops, nest.up, nest.stmts = make([]*Loop, 0, len(g.Loops)), make([]int, 0, len(g.Loops)), make([]*Stmt, 0, len(g.Stmts))
		nest.loopOf = make([]int, len(lw.pr.Ints))
	}
	for s := range nest.loopOf {
		nest.loopOf[s] = -1
	}
	if !nest.collect(root, root, -1) {
		return nil
	}
	for _, lp := range nest.loops {
		if nest.varies(&lp.Lo) || nest.varies(&lp.Hi) {
			return nil
		}
	}
	for _, st := range nest.stmts {
		if st.LHS == nil || st.LHS.Lay.Dist == nil || len(st.Sums) > 0 || !nest.boxed(st.LHS) {
			return nil
		}
	}
	for _, st := range nest.stmts {
		for _, r := range st.reads {
			if nest.writes(r.Lay) && !ownerAligned(r, st.LHS) {
				return nil
			}
		}
	}
	out := lw.s.nests.New()
	out.loops, out.up = lw.s.loopLists.Carve(nest.loops), lw.s.ints.Carve(nest.up)
	out.stmts, out.loopOf = lw.s.stmtLists.Carve(nest.stmts), lw.s.ints.Carve(nest.loopOf)
	return out
}

// collect adds lp, below the loop at index up, and everything under it to
// the nest rooted at root; false when one of them breaks the first two
// rules' shape: a communication position or a branch inside, a loop
// reusing a variable or stepping by other than a constant ±1.
func (n *Nest) collect(root, lp *Loop, up int) bool {
	if lp.Head != nil || (lp != root && lp.Pre != nil) || n.loopOf[lp.Slot] >= 0 {
		return false
	}
	if step, ok := lp.Step.constant(); !ok || (step != 1 && step != -1) {
		return false
	}
	self := len(n.loops)
	n.loopOf[lp.Slot] = self
	n.loops, n.up = append(n.loops, lp), append(n.up, up)
	for _, node := range lp.Body {
		switch node := node.(type) {
		case *Stmt:
			n.stmts = append(n.stmts, node)
		case *Loop:
			if !n.collect(root, node, self) {
				return false
			}
		default: // a communication position or a branch
			return false
		}
	}
	return true
}

// writes reports whether a statement of the nest assigns the array.
func (n *Nest) writes(lay *runtime.ArrayLayout) bool {
	return slices.ContainsFunc(n.stmts, func(st *Stmt) bool { return st.LHS.Lay == lay })
}

// boxChain marks the box the row loop at index l of the nest's loops
// ends: the longest run of loops upwards from it in which each has the
// next as its whole body and every statement's left-hand flat offset
// moves with every variable. The left-hand subscripts being v+c for
// distinct variables (boxed), the map from iteration point to written
// element is then injective on the box, and rowBody's rule — every
// reference to a written array lands on the point's own target — makes
// the points independent as it makes the iterations of a row.
func (lw *lowerer) boxChain(nest *Nest, l int) {
	row := nest.loops[l]
	head, depth := row, len(row.Row[0].loops)-1
climb:
	for up := nest.up[l]; up >= 0 && len(nest.loops[up].Body) == 1; up = nest.up[up] {
		lp := nest.loops[up]
		for _, st := range row.Row {
			if st.LHS.off.coef(lp.Slot) == 0 {
				break climb
			}
		}
		depth--
		head.outer, lp.boxVars, head = lp, head.boxVars|depthBit(depth), lp
	}
	row.Box, head.Box = row, row
	lw.pr.boxLevels = max(lw.pr.boxLevels, len(row.Row[0].loops)-1-depth)
	// Of the chain's variables only those a leaf reads matter to RunBox.
	read := uint64(0)
	for _, st := range row.Row {
		for i := range st.row {
			read |= st.row[i].vars
		}
	}
	head.boxVars &= read
}

// varies reports whether an integer expression may change inside the
// nest: it reads a variable of the nest, or cannot be inspected.
func (n *Nest) varies(e *IntExpr) bool {
	if e.gen != nil {
		return true
	}
	for _, t := range e.Terms {
		if n.loopOf[t.Slot] >= 0 {
			return true
		}
	}
	return false
}

// boxed reports whether a left-hand side sweeps a box over the nest:
// each subscript is v+c for a nest variable v no other subscript uses,
// or does not vary in the nest.
func (n *Nest) boxed(lhs *ArrayRef) bool {
	if len(lhs.Subs) != lhs.Lay.Arr.Rank() {
		return false
	}
	for i := range lhs.Subs {
		sub := &lhs.Subs[i]
		if !n.varies(sub) {
			continue
		}
		if sub.gen != nil || len(sub.Terms) != 1 || sub.Terms[0].Coef != 1 {
			return false
		}
		// v varies in the nest, so an earlier subscript reading it is v+c.
		v := sub.Terms[0].Slot
		if slices.ContainsFunc(lhs.Subs[:i], func(e IntExpr) bool { return len(e.Terms) == 1 && e.Terms[0].Slot == v }) {
			return false
		}
	}
	return true
}

// ownerAligned reports whether a read lands, in every iteration, on
// the processor that owns the statement's left-hand element.
func ownerAligned(r, lhs *ArrayRef) bool {
	if !r.Lay.Dist.SameLayout(*lhs.Lay.Dist) || !r.affine() || len(r.Subs) != r.Lay.Arr.Rank() {
		return false
	}
	for i, dd := range r.Lay.Dist.Dims {
		if dd.Kind != dist.Star && !r.Subs[i].equal(&lhs.Subs[i].Affine) {
			return false
		}
	}
	return true
}

// constraint is what one BLOCK dimension of a statement's target asks of
// the loop whose variable subscripts it: per processor, the values of
// the variable for which the processor owns the statement's elements
// along that dimension. exact says the loop's clamp is exactly that.
type constraint struct {
	stmt, dim, loop int // the statement's index in the nest, the dimension, the loop's
	owned           []Range
	exact           bool
}

// clamp computes the per-processor loop bounds of a nest and decides, per
// statement, whether they make the ownership guard redundant and whether
// subscript ranges can be verified once on entry. The constraints and
// their ranges are the lowerer's scratch.
func (lw *lowerer) clamp(n *Nest) {
	procs := lw.pl.Layout.P
	cons := lw.cons[:0]
	for si, st := range n.stmts {
		for i, dd := range st.LHS.Lay.Dist.Dims {
			if sub := &st.LHS.Subs[i]; dd.Kind == dist.Block && n.varies(sub) {
				cons = append(cons, constraint{stmt: si, dim: i, loop: n.loopOf[sub.Terms[0].Slot]})
			}
		}
	}
	// One run of procs ranges per constraint, then one for a loop's hull.
	ranges := slices.Grow(lw.owned[:0], (len(cons)+1)*procs)[:(len(cons)+1)*procs]
	for j := range cons {
		c := &cons[j]
		lhs := n.stmts[c.stmt].LHS
		c.owned = ranges[j*procs : (j+1)*procs]
		for p := range c.owned {
			lo, hi := lhs.Lay.OwnedBox(p, c.dim)
			c.owned[p] = Range{Lo: lo - lhs.Subs[c.dim].Const, Hi: hi - lhs.Subs[c.dim].Const}
		}
	}
	// A loop is clamped to the hull of the constraints on its variable
	// when every statement below it has one; it is exact when the hull is
	// every one of those statements' own range.
	hull := ranges[len(cons)*procs:]
	for l, lp := range n.loops {
		has, same := false, true
		for si, st := range n.stmts {
			if !slices.Contains(st.loops, lp) {
				continue
			}
			j := slices.IndexFunc(cons, func(c constraint) bool { return c.stmt == si && c.loop == l })
			if j < 0 {
				has = false
				break
			}
			own := cons[j].owned
			if !has {
				copy(hull, own)
				has = true
				continue
			}
			for p := range hull {
				if hull[p] != own[p] {
					same = false
					hull[p] = Range{Lo: min(hull[p].Lo, own[p].Lo), Hi: max(hull[p].Hi, own[p].Hi)}
				}
			}
		}
		if !has {
			continue
		}
		lp.Clamp = lw.s.ranges.Carve(hull)
		for j := range cons {
			if cons[j].loop == l {
				cons[j].exact = same
			}
		}
	}
	for si, st := range n.stmts {
		covered, distributed := 0, 0
		for _, c := range cons {
			if c.stmt == si && c.exact {
				covered++
			}
		}
		for _, dd := range st.LHS.Lay.Dist.Dims {
			if dd.Kind != dist.Star {
				distributed++
			}
		}
		st.Guard = covered != distributed
		// An unguarded statement stores and reads exactly over the
		// processor's own box, which is verified on entry; a guarded one
		// tests each target it walks past against the processor's local box.
		st.LHS.hoisted = !st.Guard
		if !st.Guard {
			for _, r := range st.reads {
				r.hoisted = r.affine()
			}
		}
	}
	lw.cons, lw.owned = cons, ranges
}

// entryKey collects the slots Enter's outcome depends on beside the
// frame's processor and reserves the nest's part of the frames' memos.
func (lw *lowerer) entryKey(n *Nest) {
	pr, mark := lw.pr, len(lw.ints)
	for _, lp := range n.loops {
		lw.ints = addSlots(addSlots(lw.ints, mark, &lp.Lo.Affine, n.loopOf), mark, &lp.Hi.Affine, n.loopOf)
	}
	verified := func(r *ArrayRef) {
		for i := range r.Subs {
			lw.ints = addSlots(lw.ints, mark, &r.Subs[i].Affine, n.loopOf)
		}
	}
	for _, st := range n.stmts {
		verified(st.LHS)
		for _, r := range st.reads {
			if r.hoisted {
				verified(r)
			}
		}
	}
	n.slots = heapsize.Pop(&lw.ints, mark, &lw.s.ints)
	at, mark := pr.memoLen+1+len(n.slots), len(lw.proofs)
	for _, st := range n.stmts {
		for _, r := range st.reads {
			if !st.Guard && r.hoisted && r.Lay.Dist != nil && !ownerAligned(r, st.LHS) && !proves(lw.proofs[mark:], r, st.innermost()) {
				lw.proofs = append(lw.proofs, proof{ref: r, loop: st.innermost(), at: at})
				at += 2 * len(r.Subs)
			}
		}
	}
	n.proofs = heapsize.Pop(&lw.proofs, mark, &lw.s.proofs)
	n.written = at
	for _, st := range n.stmts {
		at += 2 * len(st.LHS.Subs)
	}
	n.memo, pr.memoLen = pr.memoLen, at
}

// proves reports whether one of the proofs reads what r reads in the
// body of lp.
func proves(proofs []proof, r *ArrayRef, lp *Loop) bool {
	return slices.ContainsFunc(proofs, func(pf proof) bool {
		return pf.loop == lp && pf.ref.Lay == r.Lay && slices.EqualFunc(pf.ref.Subs, r.Subs, func(a, b IntExpr) bool { return a.equal(&b.Affine) })
	})
}

// innermost returns the loop directly around a statement of a nest.
func (st *Stmt) innermost() *Loop { return st.loops[len(st.loops)-1] }

// span returns the range an affine form takes over the nest's box: the
// full iteration ranges, or only the frame's processor's part of them.
func (n *Nest) span(a *Affine, fr *Frame, mine bool) Range {
	out := Range{Lo: a.Const, Hi: a.Const}
	for _, t := range a.Terms {
		r := Range{Lo: fr.Ints[t.Slot], Hi: fr.Ints[t.Slot]}
		if l := n.loopOf[t.Slot]; l >= 0 {
			r = fr.full(n.loops[l])
			if mine {
				r = fr.mine(n.loops[l])
			}
		}
		if t.Coef < 0 {
			r.Lo, r.Hi = r.Hi, r.Lo
		}
		out.Lo += t.Coef * r.Lo
		out.Hi += t.Coef * r.Hi
	}
	return out
}

// Enter prepares one execution of the nest under fr, after the root's
// Begin said it runs: it evaluates every loop's range and verifies, once,
// the subscript ranges the nest's hoisted references rely on, then proves
// the hoisted reads. An out-of-range subscript is recorded in fr.Err,
// positioned at the reference. Ranges and verification are a function of
// the frame's processor and n.slots, and the ranges are written here only:
// an entry under the key of the frame's last entry that verified skips
// them. The proof depends on what the processor holds valid, which changes
// between entries, so every entry makes it.
func (n *Nest) Enter(fr *Frame) {
	key := fr.memo[n.memo : n.memo+1+len(n.slots)]
	if fr.Unchanged(n.slots, key[1:]) && key[0] == fr.P+1 {
		fr.unboxed = !n.proven(fr)
		return
	}
	key[0], fr.unboxed = 0, false
	for l, lp := range n.loops {
		lo, hi := lp.Lo.Eval(fr), lp.Hi.Eval(fr)
		if lp.Step.Const < 0 {
			lo, hi = hi, lo
		}
		full, mine := Range{Lo: lo, Hi: hi}, Range{Lo: lo, Hi: hi}
		if lp.Clamp != nil {
			mine = full.intersect(lp.Clamp[fr.P])
		}
		id, live, busy := lp.Src.ID, full.Lo <= full.Hi, mine.Lo <= mine.Hi
		if up := n.up[l]; up >= 0 {
			around := n.loops[up].Src.ID
			live, busy = live && fr.live[around], busy && fr.busy[around]
		}
		copy(fr.ranges[4*id:], []int{full.Lo, full.Hi, mine.Lo, mine.Hi})
		fr.live[id], fr.busy[id] = live, busy
	}
	for _, st := range n.stmts {
		id := st.innermost().Src.ID
		if !fr.live[id] {
			continue
		}
		n.verify(st.LHS, fr, false)
		if st.Guard || !fr.busy[id] {
			continue
		}
		for _, r := range st.reads {
			if r.hoisted {
				n.verify(r, fr, true)
			}
		}
	}
	if fr.Err != nil {
		return
	}
	for _, pf := range n.proofs {
		n.hull(pf.ref, fr, true, fr.memo[pf.at:])
	}
	for at, st := n.written, 0; st < len(n.stmts); at, st = at+2*len(n.stmts[st].LHS.Subs), st+1 {
		n.hull(n.stmts[st].LHS, fr, false, fr.memo[at:])
	}
	key[0] = fr.P + 1
	fr.unboxed = !n.proven(fr)
}

// verify records in fr an error when the reference's subscripts range
// outside the declared bounds over the nest's box — the frame's
// processor's part of it when mine.
func (n *Nest) verify(r *ArrayRef, fr *Frame, mine bool) {
	arr := r.Lay.Arr
	for i := range r.Subs {
		if s := n.span(&r.Subs[i].Affine, fr, mine); s.Lo < arr.Lo[i] || s.Hi > arr.Hi[i] {
			fr.fail(rangeError(r.Pos, r.Lay, i, s.Lo, s.Hi))
			return
		}
	}
}

// hull writes into dst the ranges of the reference's subscripts over the
// nest's box — the frame's processor's part of it when mine — their lower
// bounds and then their upper bounds.
func (n *Nest) hull(r *ArrayRef, fr *Frame, mine bool, dst []int) {
	for i := range r.Subs {
		s := n.span(&r.Subs[i].Affine, fr, mine)
		dst[i], dst[len(r.Subs)+i] = s.Lo, s.Hi
	}
}

// proven reports whether the frame's processor holds valid the hull of
// every proof a statement it runs reads — the subscripts' ranges over its
// part of the nest's box, which verify found inside the declared bounds —
// and so may read the hoisted reads untested. Where it does not, or the
// hull of a coupled subscript takes in more than the read does, the entry
// takes the tested per-element path, which reports the first stale
// element.
func (n *Nest) proven(fr *Frame) bool {
	for _, pf := range n.proofs {
		r := len(pf.ref.Subs)
		if fr.busy[pf.loop.Src.ID] && !fr.View(pf.ref.Lay).Holds(fr.P, fr.memo[pf.at:pf.at+r], fr.memo[pf.at+r:pf.at+2*r]) {
			return false
		}
	}
	return true
}

// exit leaves in the variable of a live nest loop what walking its full
// range leaves.
func (lp *Loop) exit(fr *Frame) {
	full := fr.full(lp)
	fr.Bound[lp.Slot], fr.Ints[lp.Slot] = true, full.Hi+1
	if lp.Step.Const < 0 {
		fr.Ints[lp.Slot] = full.Lo - 1
	}
}

// Leave completes one execution of the nest under fr: every loop
// variable takes the value the full walk leaves in it, and the frame's
// processor loses the validity of every element the nest wrote that it
// does not own.
func (n *Nest) Leave(fr *Frame) {
	for _, lp := range n.loops {
		if fr.live[lp.Src.ID] {
			lp.exit(fr)
		}
	}
	at := n.written
	for _, st := range n.stmts {
		if r := len(st.LHS.Subs); fr.live[st.innermost().Src.ID] {
			fr.View(st.LHS.Lay).InvalidateBox(fr.P, fr.memo[at:at+r], fr.memo[at+r:at+2*r])
		}
		at += 2 * len(st.LHS.Subs)
	}
}
