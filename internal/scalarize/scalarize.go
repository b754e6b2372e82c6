// Package scalarize rewrites F90 array-section assignments into
// elementwise DO loops, reproducing the behaviour of the pHPF
// scalarizer described in §2.3 of the paper: each array statement
// becomes its own loop nest (no fusion), which is precisely what makes
// earliest-placement redundancy elimination syntax-sensitive (Fig. 3,
// middle column) and what the global placement algorithm is robust to.
//
// Reduction statements — assignments whose right-hand side contains a
// SUM over an array section — are deliberately left unscalarized: the
// compiler treats reduction communication specially (§6.2), and the
// runtime executes SUM natively.
package scalarize

import (
	"fmt"
	"strconv"

	"gcao/internal/ast"
	"gcao/internal/heapsize"
	"gcao/internal/sem"
	"gcao/internal/source"
)

// Result carries the scalarized body and statistics.
type Result struct {
	// Body is the scalarized routine body. It is copy-on-write: a
	// statement, list or expression nothing under which changed is the
	// parsed routine's own, so only what was rewritten is new.
	Body []ast.Stmt
	// LoopsCreated counts the DO loops the scalarizer introduced.
	LoopsCreated int
	// StmtsExpanded counts array statements that were expanded.
	StmtsExpanded int

	// bytes counts the nodes, lists and names the rewrite made that Body
	// keeps.
	bytes int64
}

// Bytes returns what the result holds beside the parsed routine: itself
// and what the rewrite made.
func (r *Result) Bytes() int64 { return heapsize.Of(r) + r.bytes }

type scalarizer struct {
	u       *sem.Unit
	counter int
	res     *Result
}

// Scalarize returns a new routine body in which every F90 array
// statement has been rewritten as a scalar loop nest. The input body
// is not modified, and what the rewrite leaves alone it shares with the
// input rather than copying. A statement keeps its source position, from
// which cfg.Build derives the label analyses report it by.
func Scalarize(u *sem.Unit) (*Result, error) {
	s := scalarizer{u: u, res: &Result{}}
	body, _, err := s.body(u.Routine.Body)
	if err != nil {
		return nil, err
	}
	s.res.Body = body
	return s.res, nil
}

func (s *scalarizer) freshVar() string {
	s.counter++
	v := fmt.Sprintf("i$%d", s.counter)
	s.res.bytes += int64(len(v))
	return v
}

// body scalarizes a statement list. Every statement becomes exactly one,
// so the result is stmts itself, and changed false, unless some
// statement was rewritten; then it is a new list of the same length.
func (s *scalarizer) body(stmts []ast.Stmt) (out []ast.Stmt, changed bool, err error) {
	for i, st := range stmts {
		ns, err := s.stmt(st)
		if err != nil {
			return nil, false, err
		}
		if ns != st && out == nil {
			out = make([]ast.Stmt, len(stmts))
			copy(out, stmts[:i])
			s.res.bytes += heapsize.Slice(out)
		}
		if out != nil {
			out[i] = ns
		}
	}
	if out == nil {
		return stmts, false, nil
	}
	return out, true, nil
}

// stmt scalarizes one statement: st itself when nothing in it changed.
func (s *scalarizer) stmt(st ast.Stmt) (ast.Stmt, error) {
	switch st := st.(type) {
	case *ast.AssignStmt:
		return s.assign(st)
	case *ast.DoStmt:
		b, changed, err := s.body(st.Body)
		if err != nil || !changed {
			return st, err
		}
		do := *st
		do.Body = b
		s.res.bytes += heapsize.Of(&do)
		return &do, nil
	case *ast.IfStmt:
		t, tc, err := s.body(st.Then)
		if err != nil {
			return nil, err
		}
		e, ec, err := s.body(st.Else)
		if err != nil || !tc && !ec {
			return st, err
		}
		is := *st
		is.Then, is.Else = t, e
		s.res.bytes += heapsize.Of(&is)
		return &is, nil
	}
	return st, nil
}

// expandWhole turns a bare array name reference (no subscripts) into a
// full-section reference.
func (s *scalarizer) expandWhole(r *ast.Ref) *ast.Ref {
	a := s.u.Arrays[r.Name]
	if a == nil || len(r.Subs) > 0 {
		return r
	}
	subs := make([]ast.Sub, a.Rank())
	for i := range subs {
		subs[i] = ast.Sub{Kind: ast.SubRange}
	}
	return &ast.Ref{Name: r.Name, Subs: subs, Pos: r.Pos}
}

// rangeInfo is one resolved triplet of a section subscript.
type rangeInfo struct {
	dim          int // array dimension index
	lo, hi, step int
}

// resolveRanges evaluates the range subscripts of a reference.
func (s *scalarizer) resolveRanges(r *ast.Ref) ([]rangeInfo, error) {
	a := s.u.Arrays[r.Name]
	if a == nil {
		return nil, nil
	}
	var out []rangeInfo
	for d, sub := range r.Subs {
		if sub.Kind != ast.SubRange {
			continue
		}
		ri := rangeInfo{dim: d, lo: a.Lo[d], hi: a.Hi[d], step: 1}
		var err error
		if sub.Lo != nil {
			ri.lo, err = s.u.EvalInt(sub.Lo)
			if err != nil {
				return nil, source.Errorf(r.Pos, "scalarize: section bound of %q must be a compile-time integer: %v", r.Name, err)
			}
		}
		if sub.Hi != nil {
			ri.hi, err = s.u.EvalInt(sub.Hi)
			if err != nil {
				return nil, source.Errorf(r.Pos, "scalarize: section bound of %q must be a compile-time integer: %v", r.Name, err)
			}
		}
		if sub.Step != nil {
			ri.step, err = s.u.EvalInt(sub.Step)
			if err != nil {
				return nil, source.Errorf(r.Pos, "scalarize: section step of %q must be a compile-time integer: %v", r.Name, err)
			}
			if ri.step < 1 {
				return nil, source.Errorf(r.Pos, "scalarize: section step of %q must be >= 1", r.Name)
			}
		}
		out = append(out, ri)
	}
	return out, nil
}

func rangeCount(ri rangeInfo) int {
	if ri.lo > ri.hi {
		return 0
	}
	return (ri.hi-ri.lo)/ri.step + 1
}

// containsSum reports whether the expression contains a SUM call.
func containsSum(e ast.Expr) bool {
	found := false
	ast.WalkExprs(e, func(e ast.Expr) {
		if c, ok := e.(*ast.Call); ok && c.Func == "sum" {
			found = true
		}
	})
	return found
}

// isArrayStmt reports whether the assignment needs scalarization.
func (s *scalarizer) isArrayStmt(st *ast.AssignStmt) bool {
	if a := s.u.Arrays[st.LHS.Name]; a != nil {
		if len(st.LHS.Subs) == 0 {
			return true // whole-array assignment
		}
		if st.LHS.HasSection() {
			return true
		}
	}
	// RHS whole-array or section refs also force expansion only when
	// the LHS is an array element written elementwise; an RHS section
	// with a scalar LHS is only legal under SUM, handled separately.
	return false
}

// assign scalarizes an assignment into one statement: st itself when it
// is not an array statement and its right-hand side names no whole array.
func (s *scalarizer) assign(st *ast.AssignStmt) (ast.Stmt, error) {
	if !s.isArrayStmt(st) {
		// Still expand bare array names on the RHS under SUM.
		rhs := s.expandRHSWholes(st.RHS)
		if rhs == st.RHS {
			return st, nil
		}
		as := *st
		as.RHS = rhs
		s.res.bytes += heapsize.Of(&as)
		return &as, nil
	}
	if containsSum(st.RHS) {
		return nil, source.Errorf(st.Pos, "scalarize: SUM on the right-hand side of an array statement is not supported")
	}

	lhs := s.expandWhole(st.LHS)
	lranges, err := s.resolveRanges(lhs)
	if err != nil {
		return nil, err
	}
	if len(lranges) == 0 {
		return nil, source.Errorf(st.Pos, "scalarize: internal: array statement without ranges")
	}

	// Check whether every RHS section conforms with matching steps, so
	// we can use the readable direct-bounds form; otherwise normalize.
	type refRanges struct {
		ref    *ast.Ref
		ranges []rangeInfo
	}
	var rhsRefs []refRanges
	var walkErr error
	// rewriteRHS replaces every node the expansion makes here, so none of
	// them is kept.
	kept := s.res.bytes
	rhs := s.expandRHSWholes(st.RHS)
	s.res.bytes = kept
	ast.WalkExprs(rhs, func(e ast.Expr) {
		if walkErr != nil {
			return
		}
		r, ok := e.(*ast.Ref)
		if !ok || s.u.Arrays[r.Name] == nil {
			return
		}
		rr, err := s.resolveRanges(r)
		if err != nil {
			walkErr = err
			return
		}
		if len(rr) == 0 {
			return
		}
		if len(rr) != len(lranges) {
			walkErr = source.Errorf(r.Pos, "scalarize: %q has %d section dims, LHS has %d", r.Name, len(rr), len(lranges))
			return
		}
		for i := range rr {
			if rangeCount(rr[i]) != rangeCount(lranges[i]) {
				walkErr = source.Errorf(r.Pos, "scalarize: non-conforming sections: %q dim %d has %d elements, LHS has %d",
					r.Name, rr[i].dim, rangeCount(rr[i]), rangeCount(lranges[i]))
				return
			}
		}
		rhsRefs = append(rhsRefs, refRanges{ref: r, ranges: rr})
	})
	if walkErr != nil {
		return nil, walkErr
	}

	direct := true
	for _, rr := range rhsRefs {
		for i := range rr.ranges {
			if rr.ranges[i].step != lranges[i].step {
				direct = false
			}
		}
	}

	// Allocate one loop variable per sectioned LHS dimension.
	vars := make([]string, len(lranges))
	for i := range vars {
		vars[i] = s.freshVar()
	}

	// Build the index expression substitutions. In direct form the loop
	// variable runs over the LHS triplet and an RHS index is v + (rlo -
	// llo). In normalized form the variable runs 0..count-1 and indexes
	// are lo + v*step on both sides.
	num := func(v int, pos source.Pos) ast.Expr {
		lit := &ast.NumLit{Text: strconv.Itoa(v), Value: float64(v), Int: v, IsInt: true, Pos: pos}
		s.res.bytes += heapsize.Of(lit)
		return lit
	}
	mkIdx := func(v string, base, coef int, pos source.Pos) ast.Expr {
		id := &ast.Ident{Name: v, Pos: pos}
		s.res.bytes += heapsize.Of(id)
		ve := ast.Expr(id)
		if coef != 1 {
			ve = s.bin(ast.Mul, num(coef, pos), ve, pos)
		}
		if base == 0 {
			return ve
		}
		if base > 0 {
			return s.bin(ast.Add, ve, num(base, pos), pos)
		}
		return s.bin(ast.Sub_, ve, num(-base, pos), pos)
	}

	// New LHS with element subscripts.
	newLHS := &ast.Ref{Name: lhs.Name, Pos: lhs.Pos, Subs: append([]ast.Sub(nil), lhs.Subs...)}
	s.res.bytes += heapsize.Of(newLHS) + heapsize.Slice(newLHS.Subs)
	{
		k := 0
		for d, sub := range lhs.Subs {
			if sub.Kind != ast.SubRange {
				continue
			}
			var idx ast.Expr
			if direct {
				id := &ast.Ident{Name: vars[k], Pos: lhs.Pos}
				s.res.bytes += heapsize.Of(id)
				idx = id
			} else {
				idx = mkIdx(vars[k], lranges[k].lo, lranges[k].step, lhs.Pos)
			}
			newLHS.Subs[d] = ast.Sub{Kind: ast.SubExpr, X: idx}
			k++
			_ = d
		}
	}

	// Rewrite the RHS, substituting each sectioned ref.
	newRHS := s.rewriteRHS(rhs, lranges, vars, direct, mkIdx)

	inner := &ast.AssignStmt{LHS: newLHS, RHS: newRHS, Pos: st.Pos, Label: st.Label}
	s.res.bytes += heapsize.Of(inner)
	s.res.StmtsExpanded++

	// Wrap in loops, first sectioned dimension outermost (matching the
	// pHPF scalarizer's row-major order for these examples).
	var out ast.Stmt = inner
	for k := len(lranges) - 1; k >= 0; k-- {
		var lo, hi ast.Expr
		var step ast.Expr
		if direct {
			lo = num(lranges[k].lo, st.Pos)
			hi = num(lranges[k].hi, st.Pos)
			if lranges[k].step != 1 {
				step = num(lranges[k].step, st.Pos)
			}
		} else {
			lo = num(0, st.Pos)
			hi = num(rangeCount(lranges[k])-1, st.Pos)
		}
		do := &ast.DoStmt{Var: vars[k], Lo: lo, Hi: hi, Step: step, Body: []ast.Stmt{out}, Pos: st.Pos}
		s.res.bytes += heapsize.Of(do) + heapsize.Slice(do.Body)
		out = do
		s.res.LoopsCreated++
	}
	return out, nil
}

// expandRHSWholes replaces bare array-name identifiers in an
// expression with full-section references. It copies only the path to
// what it replaced: an expression naming no whole array comes back as
// itself.
func (s *scalarizer) expandRHSWholes(e ast.Expr) ast.Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *ast.Ident:
		if a := s.u.Arrays[e.Name]; a != nil {
			subs := make([]ast.Sub, a.Rank())
			for i := range subs {
				subs[i] = ast.Sub{Kind: ast.SubRange}
			}
			r := &ast.Ref{Name: e.Name, Subs: subs, Pos: e.Pos}
			s.res.bytes += heapsize.Of(r) + heapsize.Slice(subs)
			return r
		}
		return e
	case *ast.BinExpr:
		x, y := s.expandRHSWholes(e.X), s.expandRHSWholes(e.Y)
		if x == e.X && y == e.Y {
			return e
		}
		return s.bin(e.Op, x, y, e.Pos)
	case *ast.UnaryExpr:
		if x := s.expandRHSWholes(e.X); x != e.X {
			return s.unary(x, e.Pos)
		}
		return e
	case *ast.Call:
		var args []ast.Expr // nil until an argument changes
		for i, a := range e.Args {
			na := s.expandRHSWholes(a)
			if na != a && args == nil {
				args = make([]ast.Expr, len(e.Args))
				copy(args, e.Args[:i])
			}
			if args != nil {
				args[i] = na
			}
		}
		if args == nil {
			return e
		}
		return s.call(e.Func, args, e.Pos)
	default:
		return e
	}
}

type idxMaker func(v string, base, coef int, pos source.Pos) ast.Expr

// rewriteRHS substitutes loop variables into every sectioned reference
// of the RHS expression tree.
func (s *scalarizer) rewriteRHS(e ast.Expr, lranges []rangeInfo, vars []string, direct bool, mkIdx idxMaker) ast.Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *ast.Ref:
		if s.u.Arrays[e.Name] == nil || !e.HasSection() {
			return e
		}
		rr, err := s.resolveRanges(e)
		if err != nil || len(rr) != len(lranges) {
			return e // validated earlier; defensive
		}
		out := &ast.Ref{Name: e.Name, Pos: e.Pos, Subs: append([]ast.Sub(nil), e.Subs...)}
		s.res.bytes += heapsize.Of(out) + heapsize.Slice(out.Subs)
		k := 0
		for d, sub := range e.Subs {
			if sub.Kind != ast.SubRange {
				continue
			}
			var idx ast.Expr
			if direct {
				idx = mkIdx(vars[k], rr[k].lo-lranges[k].lo, 1, e.Pos)
			} else {
				idx = mkIdx(vars[k], rr[k].lo, rr[k].step, e.Pos)
			}
			out.Subs[d] = ast.Sub{Kind: ast.SubExpr, X: idx}
			k++
			_ = d
		}
		return out
	case *ast.BinExpr:
		return s.bin(e.Op,
			s.rewriteRHS(e.X, lranges, vars, direct, mkIdx),
			s.rewriteRHS(e.Y, lranges, vars, direct, mkIdx), e.Pos)
	case *ast.UnaryExpr:
		return s.unary(s.rewriteRHS(e.X, lranges, vars, direct, mkIdx), e.Pos)
	case *ast.Call:
		args := make([]ast.Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = s.rewriteRHS(a, lranges, vars, direct, mkIdx)
		}
		return s.call(e.Func, args, e.Pos)
	default:
		return e
	}
}

// bin, unary and call make the rewrite's new operator nodes, counted.
func (s *scalarizer) bin(op ast.BinOp, x, y ast.Expr, pos source.Pos) ast.Expr {
	e := &ast.BinExpr{Op: op, X: x, Y: y, Pos: pos}
	s.res.bytes += heapsize.Of(e)
	return e
}

func (s *scalarizer) unary(x ast.Expr, pos source.Pos) ast.Expr {
	e := &ast.UnaryExpr{X: x, Pos: pos}
	s.res.bytes += heapsize.Of(e)
	return e
}

func (s *scalarizer) call(fn string, args []ast.Expr, pos source.Pos) ast.Expr {
	e := &ast.Call{Func: fn, Args: args, Pos: pos}
	s.res.bytes += heapsize.Of(e) + heapsize.Slice(args)
	return e
}
