package parser

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"gcao/internal/ast"
	"gcao/internal/source"
)

func parseOne(t *testing.T, src string) *ast.Routine {
	t.Helper()
	r, err := ParseRoutine(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return r
}

func TestRoutineShape(t *testing.T) {
	r := parseOne(t, `
routine foo(n, m)
real a(n, m), b(0:n+1)
integer k
!hpf$ processors p(2, 2)
!hpf$ distribute a(block, block) onto p
!hpf$ distribute (block) :: b
a(1, 1) = 0
end
`)
	if r.Name != "foo" {
		t.Errorf("name = %q", r.Name)
	}
	if len(r.Params) != 2 || r.Params[0] != "n" || r.Params[1] != "m" {
		t.Errorf("params = %v", r.Params)
	}
	if len(r.Decls) != 2 {
		t.Fatalf("decls = %d", len(r.Decls))
	}
	items := r.Decls[0].Items
	if len(items) != 2 || items[0].Name != "a" || len(items[0].Bounds) != 2 {
		t.Errorf("decl items = %+v", items)
	}
	if items[1].Bounds[0].Lo == nil {
		t.Error("b's lower bound 0 should be explicit")
	}
	if len(r.Dirs) != 3 {
		t.Fatalf("dirs = %d", len(r.Dirs))
	}
	pd, ok := r.Dirs[0].(*ast.ProcessorsDir)
	if !ok || pd.Name != "p" || len(pd.Shape) != 2 {
		t.Errorf("processors dir = %+v", r.Dirs[0])
	}
	dd, ok := r.Dirs[1].(*ast.DistributeDir)
	if !ok || dd.Arrays[0] != "a" || dd.Onto != "p" || dd.Kinds[0] != ast.DistBlock {
		t.Errorf("distribute dir = %+v", r.Dirs[1])
	}
	dd2 := r.Dirs[2].(*ast.DistributeDir)
	if len(dd2.Arrays) != 1 || dd2.Arrays[0] != "b" {
		t.Errorf(":: form arrays = %v", dd2.Arrays)
	}
	if len(r.Body) != 1 {
		t.Errorf("body stmts = %d", len(r.Body))
	}
}

func TestControlFlow(t *testing.T) {
	r := parseOne(t, `
routine cf(n)
real a(n)
real x
do i = 1, n, 2
if (x > 0) then
a(i) = 1
else
a(i) = 2
endif
enddo
do j = 1, n
a(j) = 0
end do
end
`)
	d, ok := r.Body[0].(*ast.DoStmt)
	if !ok || d.Var != "i" || d.Step == nil {
		t.Fatalf("do stmt = %+v", r.Body[0])
	}
	iff, ok := d.Body[0].(*ast.IfStmt)
	if !ok || len(iff.Then) != 1 || len(iff.Else) != 1 {
		t.Fatalf("if stmt = %+v", d.Body[0])
	}
	d2, ok := r.Body[1].(*ast.DoStmt)
	if !ok || d2.Step != nil {
		t.Fatalf("second do = %+v", r.Body[1])
	}
}

func TestSubscripts(t *testing.T) {
	r := parseOne(t, `
routine subs(n)
real a(n, n), b(n, n)
b(2:n, :) = a(1:n-1:2, 1)
end
`)
	as := r.Body[0].(*ast.AssignStmt)
	lhs := as.LHS
	if lhs.Subs[0].Kind != ast.SubRange || lhs.Subs[0].Hi == nil || lhs.Subs[0].Lo == nil {
		t.Errorf("lhs sub0 = %+v", lhs.Subs[0])
	}
	if s := lhs.Subs[1]; s.Kind != ast.SubRange || s.Lo != nil || s.Hi != nil || s.Step != nil {
		t.Errorf("lhs sub1 should be bare ':': %+v", lhs.Subs[1])
	}
	rhs := as.RHS.(*ast.Ref)
	if rhs.Subs[0].Kind != ast.SubRange || rhs.Subs[0].Step == nil {
		t.Errorf("rhs sub0 = %+v", rhs.Subs[0])
	}
	if rhs.Subs[1].Kind != ast.SubExpr {
		t.Errorf("rhs sub1 = %+v", rhs.Subs[1])
	}
}

func TestExprPrecedence(t *testing.T) {
	r := parseOne(t, `
routine e()
real x, y, z
x = y + z * 2 ** 3 ** 2
end
`)
	as := r.Body[0].(*ast.AssignStmt)
	// y + (z * (2 ** (3 ** 2)))
	add, ok := as.RHS.(*ast.BinExpr)
	if !ok || add.Op != ast.Add {
		t.Fatalf("top = %v", ast.ExprString(as.RHS))
	}
	mul, ok := add.Y.(*ast.BinExpr)
	if !ok || mul.Op != ast.Mul {
		t.Fatalf("rhs of + = %v", ast.ExprString(add.Y))
	}
	pow, ok := mul.Y.(*ast.BinExpr)
	if !ok || pow.Op != ast.Pow {
		t.Fatalf("rhs of * = %v", ast.ExprString(mul.Y))
	}
	// Right-associative power.
	if _, ok := pow.Y.(*ast.BinExpr); !ok {
		t.Errorf("power should be right associative: %v", ast.ExprString(pow))
	}
}

func TestIntrinsics(t *testing.T) {
	r := parseOne(t, `
routine s(n)
real g(n, n)
real x
x = sum(g(1, :)) + sqrt(abs(x)) + min(x, 2.0) + mod(3, 2)
end
`)
	as := r.Body[0].(*ast.AssignStmt)
	var calls []string
	ast.WalkExprs(as.RHS, func(e ast.Expr) {
		if c, ok := e.(*ast.Call); ok {
			calls = append(calls, c.Func)
		}
	})
	want := map[string]bool{"sum": true, "sqrt": true, "abs": true, "min": true, "mod": true}
	for _, c := range calls {
		delete(want, c)
	}
	if len(want) != 0 {
		t.Errorf("missing calls: %v (got %v)", want, calls)
	}
}

func TestUnaryAndComparison(t *testing.T) {
	r := parseOne(t, `
routine u()
real x, y
if (-x <= y) then
y = -2 * x
endif
end
`)
	iff := r.Body[0].(*ast.IfStmt)
	cmp, ok := iff.Cond.(*ast.BinExpr)
	if !ok || cmp.Op != ast.CmpLe {
		t.Fatalf("cond = %v", ast.ExprString(iff.Cond))
	}
	if _, ok := cmp.X.(*ast.UnaryExpr); !ok {
		t.Errorf("lhs of <= should be unary minus: %v", ast.ExprString(cmp.X))
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"missing end", "routine f()\nx = 1\n", "missing 'end'"},
		{"unterminated do", "routine f()\ndo i = 1, 2\nx = 1\nend\n", "expected"},
		{"bad directive", "routine f()\n!hpf$ align a with b\nend\n", "unknown HPF directive"},
		{"empty input", "\n", "no routines"},
		{"garbage stmt", "routine f()\n+ 1\nend\n", "expected statement"},
		{"bad dist kind", "routine f()\nreal a(4)\n!hpf$ distribute a(diag)\nend\n", "distribution kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestMultipleRoutines(t *testing.T) {
	p, err := Parse(`
routine a()
real x
x = 1
end

routine b()
real y
y = 2
end
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Routines) != 2 || p.Routine("b") == nil || p.Routine("zzz") != nil {
		t.Errorf("routines = %d", len(p.Routines))
	}
	if _, err := ParseRoutine("routine a()\nreal x\nx=1\nend\nroutine b()\nreal y\ny=1\nend\n"); err == nil {
		t.Error("ParseRoutine must reject multi-routine input")
	}
}

func TestEndRoutineForm(t *testing.T) {
	if _, err := ParseRoutine("routine f()\nreal x\nx = 1\nend routine f\n"); err != nil {
		t.Errorf("'end routine name' form: %v", err)
	}
}

// TestNumericLiterals: an integer literal is exact or a positioned error,
// never the float64 nearest to it (which wrapped a 20-digit loop bound to
// MinInt64 and made its loop zero-trip); a real literal out of range is an
// error and one too small to represent is zero.
func TestNumericLiterals(t *testing.T) {
	lit := func(text string) (*ast.NumLit, error) {
		r, err := ParseRoutine("routine f()\nx = " + text + "\nend\n")
		if err != nil {
			return nil, err
		}
		return r.Body[0].(*ast.AssignStmt).RHS.(*ast.NumLit), nil
	}
	for _, tc := range []struct {
		text  string
		isInt bool
		i     int
		v     float64
	}{
		{"9007199254740993", true, 9007199254740993, 9007199254740992},
		{"9223372036854775807", true, 9223372036854775807, 9223372036854775807},
		{"00012", true, 12, 12},
		{"1e-400", false, 0, 0},
		{"2.5d-3", false, 0, 2.5e-3},
		{"1e3", false, 0, 1000},
	} {
		n, err := lit(tc.text)
		if err != nil {
			t.Errorf("%s: %v", tc.text, err)
			continue
		}
		if n.IsInt != tc.isInt || n.Int != tc.i || n.Value != tc.v {
			t.Errorf("%s = %+v, want IsInt %t Int %d Value %g", tc.text, *n, tc.isInt, tc.i, tc.v)
		}
	}
	for _, text := range []string{"12345678901234567890", "9223372036854775808", "1e400"} {
		_, err := lit(text)
		if err == nil || err.Error() != `2:5: bad number "`+text+`"` {
			t.Errorf("%s: error %v, want a positioned bad number", text, err)
		}
	}
}

// TestParseNestingLimit: each construct the parser recurses on parses
// nested maxNesting deep and fails, positioned, one level deeper — alone
// and sharing the count with the others.
func TestParseNestingLimit(t *testing.T) {
	rep := strings.Repeat
	routine := func(body string) string { return "routine f()\n" + body + "end\n" }
	for _, tc := range []struct {
		name string
		src  func(n int) string
		at   func(n int) string // the position of the level past the limit
	}{
		{"parentheses", func(n int) string { return routine("x = " + rep("(", n) + "1" + rep(")", n) + "\n") },
			func(n int) string { return "2:" + strconv.Itoa(4+n) }},
		{"subscripts", func(n int) string { return routine("x = " + rep("a(", n) + "1" + rep(")", n) + "\n") },
			func(n int) string { return "2:" + strconv.Itoa(4+2*n) }},
		{"intrinsic arguments", func(n int) string { return routine("x = " + rep("abs(", n) + "1" + rep(")", n) + "\n") },
			func(n int) string { return "2:" + strconv.Itoa(4+4*n) }},
		{"unary minus", func(n int) string { return routine("x = " + rep("-", n) + "1\n") },
			func(n int) string { return "2:" + strconv.Itoa(4+n) }},
		{"power chain", func(n int) string { return routine("x = " + rep("2 ** ", n) + "2\n") },
			func(n int) string { return "2:" + strconv.Itoa(2+5*n) }},
		{"do", func(n int) string { return routine(rep("do i = 1, 2\n", n) + "x = 1\n" + rep("enddo\n", n)) },
			func(n int) string { return strconv.Itoa(1+n) + ":1" }},
		{"if", func(n int) string { return routine(rep("if (x) then\n", n) + "x = 1\n" + rep("endif\n", n)) },
			func(n int) string { return strconv.Itoa(1+n) + ":1" }},
		{"do around parentheses", func(n int) string {
			h := maxNesting / 2
			return routine(rep("do i = 1, 2\n", h) + "x = " + rep("(", n-h) + "1" + rep(")", n-h) + "\n" + rep("enddo\n", h))
		}, func(n int) string { return strconv.Itoa(2+maxNesting/2) + ":" + strconv.Itoa(4+n-maxNesting/2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.src(maxNesting)); err != nil {
				t.Fatalf("%d levels: %v", maxNesting, err)
			}
			_, err := Parse(tc.src(maxNesting + 1))
			var serr *source.Error
			if !errors.As(err, &serr) {
				t.Fatalf("%d levels: error %v (%T), want a *source.Error", maxNesting+1, err, err)
			}
			want := tc.at(maxNesting+1) + ": nesting deeper than " + strconv.Itoa(maxNesting) + " levels"
			if err.Error() != want {
				t.Errorf("%d levels: %q, want %q", maxNesting+1, err, want)
			}
		})
	}
}
