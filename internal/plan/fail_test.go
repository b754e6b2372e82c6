package plan_test

import (
	"errors"
	"fmt"
	"testing"

	"gcao/internal/ast"
	"gcao/internal/plan"
	"gcao/internal/source"
)

// TestFailNodes: lowering never rejects an expression; what is wrong with
// one is reported when, and only if, it is evaluated. Each right-hand side
// below is built by hand, past the front end that refuses most of them,
// and lowered in place of a statement's. It evaluates to 0 and leaves its
// own positioned error in the frame, and only that one: as the left
// operand of a sum whose right operand fails too, its error is still the
// one reported.
func TestFailNodes(t *testing.T) {
	res := placeSrc(t, `
routine r(n)
real a(n)
real x, y
!hpf$ distribute (block) :: a
do i = 1, n
a(i) = i
enddo
y = 0
end
`, map[string]int{"n": 8}, 2)
	var target *ast.AssignStmt
	for _, st := range res.Analysis.G.Stmts {
		if st.Assign.LHS.Name == "y" {
			target = st.Assign
		}
	}
	at := func(col int) source.Pos { return source.Pos{Line: 90, Col: col} }
	num := func(v int) *ast.NumLit {
		return &ast.NumLit{Text: fmt.Sprint(v), Value: float64(v), Int: v, IsInt: true, Pos: at(1)}
	}
	elem := func(col int, sub ast.Expr) *ast.Ref {
		return &ast.Ref{Name: "a", Subs: []ast.Sub{{Kind: ast.SubExpr, X: sub}}, Pos: at(col)}
	}
	for _, tc := range []struct {
		name string
		rhs  ast.Expr
		want string
	}{
		{"unbound scalar", &ast.Ident{Name: "x", Pos: at(3)}, `90:3: unbound scalar "x"`},
		{"unknown name", &ast.Ident{Name: "z", Pos: at(4)}, `90:4: unbound scalar "z"`},
		{"intrinsic arity", &ast.Call{Func: "sqrt", Args: []ast.Expr{num(1), num(2)}, Pos: at(5)}, "90:5: sqrt called with 2 argument(s)"},
		{"unknown intrinsic", &ast.Call{Func: "cosh", Args: []ast.Expr{num(1)}, Pos: at(6)}, `90:6: unknown intrinsic "cosh"`},
		{"bad operator", &ast.BinExpr{Op: ast.BinOp(99), X: num(1), Y: num(2), Pos: at(7)}, "90:7: bad operator "},
		{"sum arity", &ast.Call{Func: "sum", Pos: at(8)}, "90:8: sum wants 1 argument"},
		{"sum of a non-section", &ast.Call{Func: "sum", Args: []ast.Expr{num(1)}, Pos: at(9)}, "90:9: sum argument must be an array section"},
		{"sum of a non-array", &ast.Call{Func: "sum", Args: []ast.Expr{&ast.Ref{Name: "x", Pos: at(11)}}, Pos: at(10)}, `90:10: sum over non-array "x"`},
		{"section for an element", &ast.Ref{Name: "a", Subs: []ast.Sub{{Kind: ast.SubRange}}, Pos: at(12)}, "90:12: section of a where an element is needed"},
		{"name not an integer", elem(13, &ast.Ident{Name: "x", Pos: at(14)}), `90:14: "x" is not an integer here`},
		{"real literal as an integer", elem(15, &ast.NumLit{Text: "1.5", Value: 1.5, Pos: at(16)}), `90:16: real literal "1.5" where integer expected`},
		{"operator in an integer", elem(17, &ast.BinExpr{Op: ast.CmpLt, X: num(1), Y: num(2), Pos: at(18)}), "90:18: operator < in integer expression"},
		{"call in an integer", elem(19, &ast.Call{Func: "sqrt", Args: []ast.Expr{num(4)}, Pos: at(20)}), "90:20: not an integer expression: sqrt(4)"},
		{"division by zero", elem(21, &ast.BinExpr{Op: ast.Div, X: num(4), Y: num(0), Pos: at(22)}), "90:22: division by zero"},
		{"mod by zero", elem(23, &ast.Call{Func: "mod", Args: []ast.Expr{num(4), num(0)}, Pos: at(24)}), "90:24: mod by zero"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			later := &ast.Call{Func: "cosh", Args: []ast.Expr{num(1)}, Pos: at(99)}
			for _, rhs := range []ast.Expr{tc.rhs, &ast.BinExpr{Op: ast.Add, X: tc.rhs, Y: later, Pos: at(98)}} {
				target.RHS = rhs
				prog := plan.Lower(res)
				fr, err := prog.NewFrame(0, prog.Plan.Layout.NewMemory())
				if err != nil {
					t.Fatal(err)
				}
				var st *plan.Stmt
				for _, n := range prog.Body {
					if s, ok := n.(*plan.Stmt); ok && s.LHS == nil {
						st = s
					}
				}
				if v := st.RHS.Eval(fr); v != 0 {
					t.Errorf("%s evaluates to %v, want 0", ast.ExprString(rhs), v)
				}
				var serr *source.Error
				if fr.Err == nil || fr.Err.Error() != tc.want || !errors.As(fr.Err, &serr) {
					t.Errorf("%s leaves error %v, want the positioned %q", ast.ExprString(rhs), fr.Err, tc.want)
				}
			}
		})
	}
}
