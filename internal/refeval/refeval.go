// Package refeval is a test oracle, imported from _test files only: a
// deliberately naive sequential evaluator of a compiled routine.
//
// Both execution backends run the lowered program of package plan, so a
// lowering bug — a wrong floating-point operation order, a wrong affine
// fold, a wrong loop-exit value — is the same on both and invisible to
// every backend-versus-backend and P-versus-1 comparison. This evaluator
// shares nothing with that path: it walks the scalarized AST (not the
// CFG, not the lowered tree) over plain global arrays with string-keyed
// maps, has no processors, no validity, no ledger and no placement, and
// takes its integer arithmetic from sem.EvalIntEnv. Floating-point
// operations happen left to right as written; SUM adds its section in
// row-major order starting from zero. It lives outside the test files
// because the program corpora it is run on belong to three packages'
// tests.
package refeval

import (
	"errors"
	"fmt"
	"math"

	"gcao/internal/ast"
	"gcao/internal/core"
	"gcao/internal/runtime"
	"gcao/internal/sem"
)

// State is the final state of a reference run.
type State struct {
	// Arrays holds every declared array, flat, row-major over its
	// declared bounds.
	Arrays map[string][]float64
	// Scalars holds the routine parameters and every assigned scalar.
	Scalars map[string]float64
}

type evaluator struct {
	u    *sem.Unit
	st   *State
	vars map[string]int // loop variables: current value, or the last loop's exit value
}

// Run evaluates the analysis's scalarized routine from zeroed arrays.
func Run(a *core.Analysis) (*State, error) {
	ev := &evaluator{
		u:    a.Unit,
		st:   &State{Arrays: map[string][]float64{}, Scalars: map[string]float64{}},
		vars: map[string]int{},
	}
	for name, arr := range a.Unit.Arrays {
		ev.st.Arrays[name] = make([]float64, arr.Size())
	}
	for name, v := range a.Unit.Params {
		ev.st.Scalars[name] = float64(v)
	}
	if err := ev.block(a.Scal.Body); err != nil {
		return nil, err
	}
	return ev.st, nil
}

func (ev *evaluator) block(stmts []ast.Stmt) error {
	for _, s := range stmts {
		var err error
		switch s := s.(type) {
		case *ast.AssignStmt:
			err = ev.assign(s)
		case *ast.DoStmt:
			err = ev.do(s)
		case *ast.IfStmt:
			var c float64
			if c, err = ev.real(s.Cond); err == nil {
				if c != 0 {
					err = ev.block(s.Then)
				} else {
					err = ev.block(s.Else)
				}
			}
		case *ast.CallStmt:
			err = fmt.Errorf("refeval: %s: cannot execute call %s", s.Pos, s.Name)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (ev *evaluator) int(e ast.Expr) (int, error) { return ev.u.EvalIntEnv(e, ev.vars) }

// do runs a loop: bounds evaluated once, a zero-trip loop leaves its
// variable alone, a completed loop leaves the first value past the end.
func (ev *evaluator) do(s *ast.DoStmt) error {
	lo, err := ev.int(s.Lo)
	if err != nil {
		return err
	}
	hi, err := ev.int(s.Hi)
	if err != nil {
		return err
	}
	step := 1
	if s.Step != nil {
		if step, err = ev.int(s.Step); err != nil {
			return err
		}
		if step == 0 {
			return fmt.Errorf("refeval: %s: zero loop step", s.Pos)
		}
	}
	for v := lo; (step > 0 && v <= hi) || (step < 0 && v >= hi); v += step {
		ev.vars[s.Var] = v
		if err := ev.block(s.Body); err != nil {
			return err
		}
		ev.vars[s.Var] = v + step
	}
	return nil
}

func (ev *evaluator) assign(s *ast.AssignStmt) error {
	v, err := ev.real(s.RHS)
	if err != nil {
		return err
	}
	if ev.u.Arrays[s.LHS.Name] == nil {
		ev.st.Scalars[s.LHS.Name] = v
		return nil
	}
	off, err := ev.offset(s.LHS)
	if err != nil {
		return err
	}
	ev.st.Arrays[s.LHS.Name][off] = v
	return nil
}

// offset is the row-major position of an element reference.
func (ev *evaluator) offset(r *ast.Ref) (int, error) {
	arr := ev.u.Arrays[r.Name]
	if len(r.Subs) != arr.Rank() {
		return 0, fmt.Errorf("refeval: %s: %s needs %d subscripts", r.Pos, r.Name, arr.Rank())
	}
	off := 0
	for i, sub := range r.Subs {
		if sub.Kind != ast.SubExpr {
			return 0, fmt.Errorf("refeval: %s: section of %s where an element is needed", r.Pos, r.Name)
		}
		x, err := ev.int(sub.X)
		if err != nil {
			return 0, err
		}
		if x < arr.Lo[i] || x > arr.Hi[i] {
			return 0, fmt.Errorf("refeval: %s: %s subscript %d outside %d:%d", r.Pos, r.Name, x, arr.Lo[i], arr.Hi[i])
		}
		off = off*(arr.Hi[i]-arr.Lo[i]+1) + x - arr.Lo[i]
	}
	return off, nil
}

// name reads a scalar name: a loop variable that holds a value, else a
// parameter or an assigned scalar.
func (ev *evaluator) name(name string) (float64, bool) {
	if v, ok := ev.vars[name]; ok {
		return float64(v), true
	}
	v, ok := ev.st.Scalars[name]
	return v, ok
}

func (ev *evaluator) real(e ast.Expr) (float64, error) {
	switch e := e.(type) {
	case *ast.NumLit:
		return e.Value, nil
	case *ast.Ident:
		v, ok := ev.name(e.Name)
		if !ok {
			return 0, fmt.Errorf("refeval: %s: unbound scalar %q", e.Pos, e.Name)
		}
		return v, nil
	case *ast.Ref:
		if ev.u.Arrays[e.Name] == nil {
			v, _ := ev.name(e.Name)
			return v, nil
		}
		off, err := ev.offset(e)
		if err != nil {
			return 0, err
		}
		return ev.st.Arrays[e.Name][off], nil
	case *ast.UnaryExpr:
		x, err := ev.real(e.X)
		return -x, err
	case *ast.BinExpr:
		x, err := ev.real(e.X)
		if err != nil {
			return 0, err
		}
		y, err := ev.real(e.Y)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case ast.Add:
			return x + y, nil
		case ast.Sub_:
			return x - y, nil
		case ast.Mul:
			return x * y, nil
		case ast.Div:
			return x / y, nil
		case ast.Pow:
			return math.Pow(x, y), nil
		case ast.CmpLt:
			return truth(x < y), nil
		case ast.CmpGt:
			return truth(x > y), nil
		case ast.CmpLe:
			return truth(x <= y), nil
		case ast.CmpGe:
			return truth(x >= y), nil
		case ast.CmpEq:
			return truth(x == y), nil
		case ast.CmpNe:
			return truth(x != y), nil
		}
		return 0, fmt.Errorf("refeval: %s: operator %v", e.Pos, e.Op)
	case *ast.Call:
		if e.Func == "sum" {
			return ev.sum(e)
		}
		args := make([]float64, len(e.Args))
		for i, a := range e.Args {
			v, err := ev.real(a)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		switch {
		case e.Func == "sqrt" && len(args) == 1:
			return math.Sqrt(args[0]), nil
		case e.Func == "abs" && len(args) == 1:
			return math.Abs(args[0]), nil
		case e.Func == "exp" && len(args) == 1:
			return math.Exp(args[0]), nil
		case e.Func == "min" && len(args) == 2:
			return math.Min(args[0], args[1]), nil
		case e.Func == "max" && len(args) == 2:
			return math.Max(args[0], args[1]), nil
		case e.Func == "mod" && len(args) == 2:
			return math.Mod(args[0], args[1]), nil
		}
		return 0, fmt.Errorf("refeval: %s: cannot call %s with %d argument(s)", e.Pos, e.Func, len(args))
	}
	return 0, fmt.Errorf("refeval: cannot evaluate %T", e)
}

func truth(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// sum adds up an array section, first dimension outermost, from zero.
func (ev *evaluator) sum(e *ast.Call) (float64, error) {
	var ref *ast.Ref
	if len(e.Args) == 1 {
		ref, _ = e.Args[0].(*ast.Ref)
	}
	if ref == nil || ev.u.Arrays[ref.Name] == nil {
		return 0, fmt.Errorf("refeval: %s: sum wants one array section", e.Pos)
	}
	arr := ev.u.Arrays[ref.Name]
	lo, hi, step := make([]int, arr.Rank()), make([]int, arr.Rank()), make([]int, arr.Rank())
	// part evaluates one triplet part, absent parts taking the default.
	part := func(e ast.Expr, dflt int) (int, error) {
		if e == nil {
			return dflt, nil
		}
		return ev.int(e)
	}
	for i := range lo {
		lo[i], hi[i], step[i] = arr.Lo[i], arr.Hi[i], 1
		if len(ref.Subs) == 0 {
			continue
		}
		sub := ref.Subs[i]
		if sub.Kind == ast.SubExpr {
			sub.Lo, sub.Hi = sub.X, sub.X
		}
		var err [3]error
		lo[i], err[0] = part(sub.Lo, arr.Lo[i])
		hi[i], err[1] = part(sub.Hi, arr.Hi[i])
		step[i], err[2] = part(sub.Step, 1)
		if e := errors.Join(err[:]...); e != nil {
			return 0, e
		}
		if lo[i] < arr.Lo[i] || hi[i] > arr.Hi[i] || step[i] < 1 {
			return 0, fmt.Errorf("refeval: %s: section %d:%d:%d of %s outside %d:%d", ref.Pos, lo[i], hi[i], step[i], ref.Name, arr.Lo[i], arr.Hi[i])
		}
	}
	data := ev.st.Arrays[ref.Name]
	total := 0.0
	var scan func(dim, off int)
	scan = func(dim, off int) {
		if dim == arr.Rank() {
			total += data[off]
			return
		}
		for x := lo[dim]; x <= hi[dim]; x += step[dim] {
			scan(dim+1, off*(arr.Hi[dim]-arr.Lo[dim]+1)+x-arr.Lo[dim])
		}
	}
	scan(0, 0)
	return total, nil
}

// Check compares a backend's final state — the owner-assembled image of
// every array and the replicated scalars — with the reference, bit for
// bit (any NaN equals any NaN). It returns an error naming the first
// difference.
func (st *State) Check(mem *runtime.Memory, scalars map[string]float64) error {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for _, name := range mem.Unit.ArrayNames {
		got, want := mem.Canonical(name), st.Arrays[name]
		if len(got) != len(want) {
			return fmt.Errorf("refeval: array %q has %d elements, reference %d", name, len(got), len(want))
		}
		for i := range got {
			if !same(got[i], want[i]) {
				return fmt.Errorf("refeval: array %q differs at flat index %d: %v vs reference %v", name, i, got[i], want[i])
			}
		}
	}
	if len(scalars) != len(st.Scalars) {
		return fmt.Errorf("refeval: %d scalars %v, reference %d %v", len(scalars), scalars, len(st.Scalars), st.Scalars)
	}
	for name, want := range st.Scalars {
		if got, ok := scalars[name]; !ok || !same(got, want) {
			return fmt.Errorf("refeval: scalar %q is %v (present %v), reference %v", name, got, ok, want)
		}
	}
	return nil
}
