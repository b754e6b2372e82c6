// Package dep implements the array dependence testing the placement
// algorithm needs: affine subscript extraction, direction vectors over
// the common loops of a definition and a use, and the IsArrayDep
// predicate of Fig. 8(d). Subscripts are affine forms over loop
// variables with routine parameters folded to constants; the tester
// handles ZIV and strong-SIV pairs exactly and is conservative (all
// directions possible) otherwise, which is safe for placement: a
// spurious dependence only forfeits an optimization.
//
// A remembering analysis answers each query once per structural class
// of (def, use) pair, not once per pair: the direction vector depends
// only on the two references' subscript forms with loop variables named
// by their binding depth, the bounds of the binding loops, and the
// number of common loops, so the sibling nests of one time-step loop
// share their answers and the number of Directions evaluations follows
// the routine's distinct reference shapes, not its size.
package dep

import (
	"encoding/binary"
	"slices"
	"unsafe"

	"gcao/internal/ast"
	"gcao/internal/cfg"
	"gcao/internal/heapsize"
	"gcao/internal/lin"
	"gcao/internal/sem"
	"gcao/internal/ssa"
)

// DirSet is the set of possible dependence directions at one loop
// level. The sign convention follows the paper: a direction is the
// sign of (use iteration − def iteration), so Gt means the definition
// executes in an earlier iteration than the use (a carried true
// dependence, "v > 0" in Fig. 8d).
type DirSet uint8

const (
	DirLt DirSet = 1 << iota // use iteration earlier than def iteration
	DirEq                    // same iteration
	DirGt                    // def iteration earlier than use iteration
)

// DirAll is the unconstrained direction set.
const DirAll = DirLt | DirEq | DirGt

// Has reports whether the set admits direction d.
func (s DirSet) Has(d DirSet) bool { return s&d != 0 }

func (s DirSet) String() string {
	switch s {
	case 0:
		return "∅"
	case DirLt:
		return "<"
	case DirEq:
		return "="
	case DirGt:
		return ">"
	case DirAll:
		return "*"
	case DirEq | DirGt:
		return ">="
	case DirEq | DirLt:
		return "<="
	case DirLt | DirGt:
		return "<>"
	}
	return "?"
}

// Analysis holds per-routine context for dependence queries under one
// binding of the routine's parameters. One built by New also remembers what
// it derived — a subscript's form per reference that Forms does not hold,
// each loop's evaluated bounds, the structural class of each reference of
// one SSA form and a direction vector per class of (def, use) pair — and so
// has a single user at a time; the literal &Analysis{Unit: u, Forms: f}
// answers the same queries from scratch, writes nothing, and may be shared.
type Analysis struct {
	Unit *sem.Unit
	// Forms, when non-nil, holds the subscript forms the program text
	// fixes; the analysis derives only those that read a parameter.
	Forms Forms
	forms map[*ast.Ref][]SubscriptForm
	vars  varForms
	memo  memo // its nil pairs: every query is answered from scratch
}

// memo is what a remembering analysis keeps between queries.
type memo struct {
	// classes interns a reference's structural class (classKey's
	// encoding) as a dense number, keyed by the encoding's bytes in keys,
	// an arena never written where a kept key lies. useClass and defClass
	// cache each use's and regular def's number plus one, by use ID and
	// DefID.
	classes  map[string]int32
	keys     []byte
	useClass []int32
	defClass []int32
	// pairs holds the direction vector of each class pair, as a span of
	// dirs.
	pairs map[classPair]dirSpan
	dirs  []DirSet
	// bounds caches each loop's valueLattice bounds by cfg.Loop.ID.
	bounds []loopBounds
	// evals counts Directions evaluations: one per class pair asked.
	evals int
}

// classPair names the class of a (regular def, use) pair: the two
// references' classes and their number of common loops.
type classPair struct{ def, use, common int32 }

// dirSpan locates a pair class's direction vector in memo.dirs; off is
// −1 when the pair is infeasible.
type dirSpan struct{ off, n int32 }

// loopBounds is a loop's lo:hi:step as valueLattice reads it; known
// marks a computed entry.
type loopBounds struct {
	lo, hi, step int
	ok, known    bool
}

// varForms interns the one-term form 1·v of each identifier v a
// subscript names. Forms are immutable, so every subscript naming v may
// share one; the zero set interns nothing and makes each afresh, and a
// set with a slab carves each form's term from it while it lasts.
type varForms struct {
	m     map[string]lin.Form
	terms *[]lin.Term
}

func (vs varForms) of(name string) lin.Form {
	f, ok := vs.m[name]
	if !ok {
		if vs.terms == nil || len(*vs.terms) == 0 {
			f = lin.Var(name)
		} else {
			f.Terms = heapsize.Take(vs.terms, 1)
			f.Terms[0] = lin.Term{Var: name, Coef: 1}
		}
		if vs.m != nil {
			vs.m[name] = f
		}
	}
	return f
}

// SubscriptForm is subForm's result for one subscript of a reference; OK
// is also false for a section subscript.
type SubscriptForm struct {
	Form lin.Form
	OK   bool
}

// Forms is the structural half of the per-reference subscript table: the
// forms of every reference none of whose subscripts mentions a routine
// parameter (i, j - 1, 2 * k + 1), which no binding changes. It is filled
// by NewForms and never written afterwards, so every binding of one
// routine — and every goroutine — may read the same one.
type Forms struct {
	of map[*ast.Ref][]SubscriptForm
	// uses, defs and loops are the SSA form's use count, def count
	// (Info.NumDefs) and the graph's loop count: what a remembering
	// analysis sizes its caches by.
	uses, defs, loops int
	// bytes counts the slabs the lists and the variables' one-term forms
	// are carved from (a variable past the loops' count makes its own), and
	// the term lists of the other forms.
	bytes int64
}

// Bytes returns what the table holds: its entries, its slab and the term
// lists of its forms.
func (f Forms) Bytes() int64 { return heapsize.Map(f.of) + f.bytes }

// NewForms derives the parameter-free subscript forms of every reference
// dependence testing and classification ask about: the SSA uses and the
// left-hand sides of the regular defs. params names the routine's
// parameters. A first pass counts the references and subscripts, so that
// the table and every reference's forms are carved from one allocation
// each, and the variables' one-term forms from one sized by the loops.
func NewForms(params []string, info *ssa.Info) Forms {
	refs, subs := 0, 0
	structural := func(r *ast.Ref) bool {
		for _, sub := range r.Subs {
			if readsParam(sub.X, params) {
				return false
			}
		}
		return true
	}
	count := func(r *ast.Ref) {
		if structural(r) {
			refs++
			subs += len(r.Subs)
		}
	}
	for _, u := range info.Uses {
		count(u.Ref)
	}
	for _, d := range info.Defs {
		count(d.LHS)
	}
	f := Forms{of: make(map[*ast.Ref][]SubscriptForm, refs), uses: len(info.Uses), defs: info.NumDefs, loops: len(info.G.Loops)}
	all := make([]SubscriptForm, subs)
	slab := all
	terms := make([]lin.Term, len(info.G.Loops))
	vars := varForms{m: map[string]lin.Form{}, terms: &terms}
	add := func(r *ast.Ref) {
		if structural(r) {
			n := len(r.Subs)
			f.of[r] = fillForms(slab[:n:n], r, nil, vars)
			slab = slab[n:]
		}
	}
	for _, u := range info.Uses {
		add(u.Ref)
	}
	for _, d := range info.Defs {
		add(d.LHS)
	}
	f.bytes = heapsize.Slice(all) + heapsize.Array[lin.Term](max(len(vars.m), len(info.G.Loops)))
	for _, sf := range all {
		// A form is a variable's interned one, that plus a constant, or
		// made for its subscript with terms of its own.
		if t := sf.Form.Terms; len(t) > 0 && unsafe.SliceData(vars.m[t[0].Var].Terms) != unsafe.SliceData(t) {
			f.bytes += heapsize.Slice(t)
		}
	}
	return f
}

// readsParam reports whether subForm would read a parameter's value in e;
// it descends exactly where subForm does.
func readsParam(e ast.Expr, params []string) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return slices.Contains(params, e.Name)
	case *ast.UnaryExpr:
		return readsParam(e.X, params)
	case *ast.BinExpr:
		return readsParam(e.X, params) || readsParam(e.Y, params)
	}
	return false
}

// New builds a remembering dependence analysis for a routine. Its caches
// are sized by the counts of the Forms it is given before its first query.
func New(u *sem.Unit) *Analysis {
	return &Analysis{Unit: u, forms: map[*ast.Ref][]SubscriptForm{}, vars: varForms{m: map[string]lin.Form{}},
		memo: memo{classes: map[string]int32{}, pairs: map[classPair]dirSpan{}}}
}

// remembers reports whether the analysis keeps what it derives.
func (a *Analysis) remembers() bool { return a.memo.pairs != nil }

// Evaluations reports how many times a remembering analysis has run
// Directions: once per class of (def, use) pair it was asked about. The
// table-less literal reports 0.
func (a *Analysis) Evaluations() int {
	return a.memo.evals
}

// refForms returns the forms of a reference's subscripts in a new list.
func refForms(r *ast.Ref, params map[string]int, vars varForms) []SubscriptForm {
	return fillForms(make([]SubscriptForm, len(r.Subs)), r, params, vars)
}

// fillForms is the one place a reference's subscripts become forms: it
// writes them into fs, one per subscript, and returns it.
func fillForms(fs []SubscriptForm, r *ast.Ref, params map[string]int, vars varForms) []SubscriptForm {
	for k, sub := range r.Subs {
		if sub.Kind != ast.SubRange {
			fs[k].Form, fs[k].OK = subForm(sub.X, params, vars)
		}
	}
	return fs
}

// RefForms returns the form of every subscript of a reference: from the
// structural table when no subscript reads a parameter, else derived under
// this binding (and remembered, when the analysis remembers). The result is
// shared: callers must not write to it.
func (a *Analysis) RefForms(r *ast.Ref) []SubscriptForm {
	if fs, ok := a.Forms.of[r]; ok {
		return fs
	}
	fs, ok := a.forms[r]
	if !ok {
		fs = refForms(r, a.Unit.Params, a.vars)
		if a.forms != nil {
			a.forms[r] = fs
		}
	}
	return fs
}

// pairDirections is Directions for a regular def and a use, answered
// once per class pair by a remembering analysis.
func (a *Analysis) pairDirections(d *ssa.RegularDef, u *ssa.Use) ([]DirSet, bool) {
	if !a.remembers() {
		return a.Directions(d.Stmt, d.LHS, u.Stmt, u.Ref)
	}
	m := &a.memo
	if m.useClass == nil && a.Forms.uses+a.Forms.defs > 0 {
		// The first query: both class caches from one slab, each the size
		// of what it is indexed by, and the key arena at four bytes a
		// reference (the Fig. 10(a) routines' classes take fewer).
		slab := make([]int32, a.Forms.uses+a.Forms.defs)
		m.useClass, m.defClass = slab[:a.Forms.uses:a.Forms.uses], slab[a.Forms.uses:]
		m.keys = make([]byte, 0, 4*len(slab))
	}
	k := classPair{
		def:    a.classOf(&m.defClass, d.DefID(), d.Stmt, d.LHS),
		use:    a.classOf(&m.useClass, u.ID, u.Stmt, u.Ref),
		common: int32(ssa.CNL(d, u)),
	}
	sp, ok := m.pairs[k]
	if !ok {
		m.evals++
		start := len(m.dirs)
		var feasible bool
		m.dirs, feasible = a.directions(m.dirs, d.Stmt, d.LHS, u.Stmt, u.Ref)
		sp = dirSpan{off: -1}
		if feasible {
			sp = dirSpan{off: int32(start), n: int32(len(m.dirs) - start)}
		}
		m.pairs[k] = sp
	}
	if sp.off < 0 {
		return nil, false
	}
	return m.dirs[sp.off : sp.off+sp.n : sp.off+sp.n], true
}

// classOf returns the class number of reference r of statement st, cached
// in (*cache)[id]: interned once per reference. A cache New's Forms did not
// size grows as the IDs come.
func (a *Analysis) classOf(cache *[]int32, id int, st *cfg.Stmt, r *ast.Ref) int32 {
	c := *cache
	if id >= len(c) {
		c = append(c, make([]int32, max(id+1, 2*len(c), 64)-len(c))...)
		*cache = c
	}
	if c[id] == 0 {
		m := &a.memo
		at := len(m.keys)
		m.keys = a.classKey(m.keys, st, r)
		c[id] = m.intern(at) + 1
	}
	return c[id] - 1
}

// intern returns the class number of the encoding keys[at:], which it
// keeps as a new class, its key a string over the arena's bytes, or drops
// as one interned before.
func (m *memo) intern(at int) int32 {
	key := unsafe.String(&m.keys[at], len(m.keys)-at) // never empty: classKey writes a length first
	n, ok := m.classes[key]
	if ok {
		m.keys = m.keys[:at]
		return n
	}
	n = int32(len(m.classes))
	m.classes[key] = n
	return n
}

// classKey appends the encoding of a reference's structural class to
// buf: everything Directions reads of one side of a pair. That is, per
// subscript, its OK flag and, when OK, its constant and each term's
// coefficient and variable, the variable named by the depths of the
// statement's loops that bind it, innermost first, with the innermost
// binding loop's valueLattice bounds (or by its name when no loop of the
// statement binds it). Two pairs whose def references, use references
// and common-loop counts encode alike get the same direction vector:
// which common loop a variable names, whether two variables are the same
// common loop's, and the lattice a subscript ranges over are all read
// off the depths and bounds.
func (a *Analysis) classKey(buf []byte, st *cfg.Stmt, r *ast.Ref) []byte {
	fs := a.RefForms(r)
	buf = binary.AppendUvarint(buf, uint64(len(fs)))
	for _, f := range fs {
		if !f.OK {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = binary.AppendVarint(buf, int64(f.Form.Const))
		buf = binary.AppendUvarint(buf, uint64(len(f.Form.Terms)))
		for _, t := range f.Form.Terms {
			buf = binary.AppendVarint(buf, int64(t.Coef))
			bound := false
			for i := len(st.Loops) - 1; i >= 0; i-- {
				l := st.Loops[i]
				if l.Var() != t.Var {
					continue
				}
				buf = binary.AppendUvarint(buf, uint64(i+1))
				if !bound {
					b := a.bounds(l)
					if b.ok {
						buf = append(buf, 1)
						buf = binary.AppendVarint(buf, int64(b.lo))
						buf = binary.AppendVarint(buf, int64(b.hi))
						buf = binary.AppendVarint(buf, int64(b.step))
					} else {
						buf = append(buf, 0)
					}
					bound = true
				}
			}
			buf = append(buf, 0)
			if !bound {
				buf = binary.AppendUvarint(buf, uint64(len(t.Var)))
				buf = append(buf, t.Var...)
			}
		}
	}
	return buf
}

// subForm extracts the affine form of an element subscript expression,
// folding routine parameters (under the binding params) and literals to
// constants and keeping loop variables symbolic. ok is false when the
// expression is not affine (division, products of variables, intrinsic
// calls, array refs). An expression that names no parameter has the same
// form under every binding, nil included. A loop variable's form comes
// from vars.
func subForm(e ast.Expr, params map[string]int, vars varForms) (lin.Form, bool) {
	switch e := e.(type) {
	case nil:
		return lin.Form{}, false
	case *ast.NumLit:
		if !e.IsInt {
			return lin.Form{}, false
		}
		return lin.ConstForm(e.Int), true
	case *ast.Ident:
		if v, ok := params[e.Name]; ok {
			return lin.ConstForm(v), true
		}
		return vars.of(e.Name), true
	case *ast.UnaryExpr:
		f, ok := subForm(e.X, params, vars)
		if !ok {
			return lin.Form{}, false
		}
		return f.Scale(-1), true
	case *ast.BinExpr:
		x, okx := subForm(e.X, params, vars)
		y, oky := subForm(e.Y, params, vars)
		if !okx || !oky {
			return lin.Form{}, false
		}
		switch e.Op {
		case ast.Add:
			return x.Add(y), true
		case ast.Sub_:
			return x.Sub(y), true
		case ast.Mul:
			if c, ok := x.IsConst(); ok {
				return y.Scale(c), true
			}
			if c, ok := y.IsConst(); ok {
				return x.Scale(c), true
			}
			return lin.Form{}, false
		case ast.Div:
			cx, okx := x.IsConst()
			cy, oky := y.IsConst()
			if okx && oky && cy != 0 && cx%cy == 0 {
				return lin.ConstForm(cx / cy), true
			}
			return lin.Form{}, false
		}
		return lin.Form{}, false
	}
	return lin.Form{}, false
}

// Directions computes the per-common-loop direction sets for a
// dependence from the definition statement (writing dref) to the use
// statement (reading uref), both references to the same array.
// feasible=false means the subscripts can never name the same element,
// so there is no dependence at all. The returned slice has one entry
// per common loop, outermost first, and is not nil for a feasible pair.
func (a *Analysis) Directions(dstmt *cfg.Stmt, dref *ast.Ref, ustmt *cfg.Stmt, uref *ast.Ref) (dirs []DirSet, feasible bool) {
	dirs, feasible = a.directions(make([]DirSet, 0, len(cfg.CommonLoops(ustmt, dstmt))), dstmt, dref, ustmt, uref)
	if !feasible {
		return nil, false
	}
	return dirs, true
}

// directions is Directions appending the direction sets to dst; it
// returns dst unchanged for an infeasible pair.
func (a *Analysis) directions(dst []DirSet, dstmt *cfg.Stmt, dref *ast.Ref, ustmt *cfg.Stmt, uref *ast.Ref) ([]DirSet, bool) {
	common := cfg.CommonLoops(ustmt, dstmt)
	start := len(dst)
	for range common {
		dst = append(dst, DirAll)
	}
	if len(dref.Subs) == 0 || len(uref.Subs) == 0 || len(dref.Subs) != len(uref.Subs) {
		// Whole-array or rank-mismatched references: conservative.
		return dst, true
	}
	// commonVar finds the level index (0-based) of the innermost common
	// loop binding a variable.
	commonVar := func(v string) (int, bool) {
		for i := len(common) - 1; i >= 0; i-- {
			if common[i].Var() == v {
				return i, true
			}
		}
		return 0, false
	}

	// fixed[i] holds a required distance at level i once constrained.
	type constraint struct {
		set  bool
		dist int
	}
	var stack [8]constraint
	fixed := stack[:0]
	if len(common) > len(stack) {
		fixed = make([]constraint, 0, len(common))
	}
	fixed = fixed[:len(common)]

	dfs, ufs := a.RefForms(dref), a.RefForms(uref)
	for k := range dfs {
		df, uf := dfs[k].Form, ufs[k].Form
		if !dfs[k].OK || !ufs[k].OK {
			continue // section subscript (reduction use) or non-affine: unconstrained
		}
		dc, dConst := df.IsConst()
		uc, uConst := uf.IsConst()
		switch {
		case dConst && uConst:
			if dc != uc {
				return dst[:start], false // ZIV: never the same element
			}
		case dConst || uConst:
			// One side fixed: check the constant lies in the other
			// side's value lattice at all; if not, the subscripts can
			// never meet (stride/range disjointness).
			if a.latticesDisjoint(df, dstmt, uf, ustmt) {
				return dst[:start], false
			}
			// Otherwise the distance is unconstrained.
			continue
		default:
			dv, dcoef, dk, dok := df.SingleVar()
			uv, ucoef, uk, uok := uf.SingleVar()
			if !dok || !uok {
				continue // multi-variable: unconstrained
			}
			di, dCommon := commonVar(dv)
			_, uCommon := commonVar(uv)
			if !dCommon || !uCommon || dv != uv {
				// Different loops or private loop variables: the inner
				// loop may satisfy the equation — unless the two value
				// lattices are provably disjoint (e.g. the Fig. 4 odd
				// vs even column sections).
				if a.latticesDisjoint(df, dstmt, uf, ustmt) {
					return dst[:start], false
				}
				continue
			}
			if dcoef != ucoef {
				if a.latticesDisjoint(df, dstmt, uf, ustmt) {
					return dst[:start], false
				}
				continue // weak SIV: conservative
			}
			if dcoef == 0 {
				if dk != uk {
					return dst[:start], false
				}
				continue
			}
			// dcoef*vd + dk == dcoef*vu + uk  =>  vu - vd = (dk-uk)/dcoef
			num := dk - uk
			if num%dcoef != 0 {
				return dst[:start], false // non-integral distance: independent
			}
			dist := num / dcoef
			if fixed[di].set && fixed[di].dist != dist {
				return dst[:start], false // conflicting constraints
			}
			fixed[di] = constraint{set: true, dist: dist}
		}
	}
	dirs := dst[start:]
	for i, c := range fixed {
		if !c.set {
			continue
		}
		switch {
		case c.dist > 0:
			dirs[i] = DirGt
		case c.dist < 0:
			dirs[i] = DirLt
		default:
			dirs[i] = DirEq
		}
	}
	return dst, true
}

// valueLattice bounds the values a subscript form can take over the
// full range of its (single) loop variable: the arithmetic set
// lo:hi:step. ok=false when the form is not a constant or a single
// loop variable with compile-time loop bounds.
func (a *Analysis) valueLattice(f lin.Form, stmt *cfg.Stmt) (lo, hi, step int, ok bool) {
	if c, isConst := f.IsConst(); isConst {
		return c, c, 1, true
	}
	v, coef, k, single := f.SingleVar()
	if !single || coef == 0 {
		return 0, 0, 0, false
	}
	var loop *cfg.Loop
	for _, l := range stmt.Loops {
		if l.Var() == v {
			loop = l
		}
	}
	if loop == nil {
		return 0, 0, 0, false
	}
	b := a.bounds(loop)
	if !b.ok {
		return 0, 0, 0, false
	}
	v1 := coef*b.lo + k
	v2 := coef*b.hi + k
	if v1 > v2 {
		v1, v2 = v2, v1
	}
	st := coef * b.step
	if st < 0 {
		st = -st
	}
	if st == 0 {
		st = 1
	}
	return v1, v2, st, true
}

// bounds returns a loop's bounds under the binding: lo:hi:step with a
// positive step, ok false when one is not a compile-time integer, the
// step is below 1 or the loop runs no iteration. A remembering analysis
// evaluates each loop once.
func (a *Analysis) bounds(l *cfg.Loop) loopBounds {
	if !a.remembers() {
		return evalBounds(a.Unit, l)
	}
	m := &a.memo
	if l.ID >= len(m.bounds) {
		m.bounds = append(m.bounds, make([]loopBounds, max(l.ID+1, 2*len(m.bounds), a.Forms.loops)-len(m.bounds))...)
	}
	if !m.bounds[l.ID].known {
		m.bounds[l.ID] = evalBounds(a.Unit, l)
	}
	return m.bounds[l.ID]
}

func evalBounds(u *sem.Unit, l *cfg.Loop) loopBounds {
	b := loopBounds{step: 1, known: true}
	lo, err1 := u.EvalInt(l.Do.Lo)
	hi, err2 := u.EvalInt(l.Do.Hi)
	if err1 != nil || err2 != nil || lo > hi {
		return b
	}
	if l.Do.Step != nil {
		s, err := u.EvalInt(l.Do.Step)
		if err != nil || s < 1 {
			return b
		}
		b.step = s
	}
	b.lo, b.hi, b.ok = lo, hi, true
	return b
}

// latticesDisjoint soundly reports that two subscript value sets can
// never intersect: either their ranges do not overlap or their strides
// and offsets are incompatible modulo the gcd.
func (a *Analysis) latticesDisjoint(df lin.Form, dstmt *cfg.Stmt, uf lin.Form, ustmt *cfg.Stmt) bool {
	dlo, dhi, dstep, ok1 := a.valueLattice(df, dstmt)
	ulo, uhi, ustep, ok2 := a.valueLattice(uf, ustmt)
	if !ok1 || !ok2 {
		return false
	}
	if dhi < ulo || uhi < dlo {
		return true
	}
	g := gcd(dstep, ustep)
	if g > 1 && (dlo-ulo)%g != 0 {
		return true
	}
	return false
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// IsArrayDep implements Fig. 8(d): it reports whether a true
// dependence from def d to use u exists with direction vector
// v_i = 0 for i < level and v_i >= 0 for i >= level, over the common
// loops of d and u. The pseudo-def at ENTRY always depends (first line
// of the figure). level is 1-based; level 0 asks only for
// feasibility.
func (a *Analysis) IsArrayDep(d ssa.Def, u *ssa.Use, level int) bool {
	switch d := d.(type) {
	case *ssa.EntryDef:
		return true
	case *ssa.RegularDef:
		dirs, feasible := a.pairDirections(d, u)
		if !feasible {
			return false
		}
		if level > len(dirs) {
			return false
		}
		// A qualifying flow vector has v_i = 0 for i < level and is
		// lexicographically positive from position level on (the
		// first non-"=" component must be ">"; components after it
		// are unconstrained), or is all-"=" — the conservative
		// loop-independent reading the paper's counts rely on.
		for i := 0; i < level-1 && i < len(dirs); i++ {
			if !dirs[i].Has(DirEq) {
				return false
			}
		}
		for i := max(level-1, 0); i < len(dirs); i++ {
			if dirs[i].Has(DirGt) {
				return true // carried at level i+1; the rest is free
			}
			if !dirs[i].Has(DirEq) {
				return false // forced "<" before any ">" is possible
			}
		}
		return true // the all-"=" (loop-independent) vector
	default:
		return false // φ-defs carry no direct dependence
	}
}

// DepLevel returns the deepest loop level that carries (or, for
// loop-independent dependences, contains) a dependence from d to u —
// max_l { IsArrayDep(d, u, l) } in the paper's notation — or 0 when no
// dependence constrains placement.
func (a *Analysis) DepLevel(d ssa.Def, u *ssa.Use) int {
	rd, ok := d.(*ssa.RegularDef)
	if !ok {
		return 0
	}
	cnl := ssa.CNL(rd, u)
	for l := cnl; l >= 1; l-- {
		if a.IsArrayDep(d, u, l) {
			return l
		}
	}
	return 0
}

// ReachingRegularDefs collects every regular definition transitively
// reachable from the use's SSA chain (through φ arguments and the
// inputs of preserving defs), plus the ENTRY pseudo-def if reached.
// This is the set "d ranges over the reaching regular defs of u" of
// §4.2. The defs are appended to regs; seen, a set over the use's
// Info, is cleared first and holds the visited defs afterwards.
func ReachingRegularDefs(u *ssa.Use, seen *ssa.Marks, regs []*ssa.RegularDef) ([]*ssa.RegularDef, *ssa.EntryDef) {
	seen.Clear()
	var entry *ssa.EntryDef
	regs = reaching(u.Reaching, seen, regs, &entry)
	return regs, entry
}

func reaching(d ssa.Def, seen *ssa.Marks, regs []*ssa.RegularDef, entry **ssa.EntryDef) []*ssa.RegularDef {
	if d == nil || !seen.Mark(d) {
		return regs
	}
	switch d := d.(type) {
	case *ssa.EntryDef:
		*entry = d
	case *ssa.RegularDef:
		regs = reaching(d.Input, seen, append(regs, d), entry)
	case *ssa.PhiDef:
		for _, a := range d.Args {
			regs = reaching(a, seen, regs, entry)
		}
	}
	return regs
}
