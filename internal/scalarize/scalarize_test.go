package scalarize

import (
	"strings"
	"testing"

	"gcao/internal/ast"
	"gcao/internal/cfg"
	"gcao/internal/parser"
	"gcao/internal/sem"
)

func scalarizeSrc(t *testing.T, src string, params map[string]int) *Result {
	t.Helper()
	r, err := parser.ParseRoutine(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u, err := sem.Analyze(r, params, sem.Options{Procs: 4})
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	res, err := Scalarize(u)
	if err != nil {
		t.Fatalf("scalarize: %v", err)
	}
	return res
}

func bodyString(res *Result) string {
	var b strings.Builder
	for _, s := range res.Body {
		b.WriteString(ast.StmtString(s))
		b.WriteByte('\n')
	}
	return b.String()
}

func TestSimpleSection(t *testing.T) {
	res := scalarizeSrc(t, `
routine f(n)
real a(n), b(n), c(n)
c(2:n) = a(1:n-1) + b(1:n-1)
end
`, map[string]int{"n": 8})
	if res.StmtsExpanded != 1 || res.LoopsCreated != 1 {
		t.Fatalf("expanded=%d loops=%d", res.StmtsExpanded, res.LoopsCreated)
	}
	d, ok := res.Body[0].(*ast.DoStmt)
	if !ok {
		t.Fatalf("not a loop: %v", ast.StmtString(res.Body[0]))
	}
	// Direct-bounds form: do v = 2, 8; c(v) = a(v-1) + b(v-1).
	lo, _ := d.Lo.(*ast.NumLit)
	hi, _ := d.Hi.(*ast.NumLit)
	if lo == nil || hi == nil || lo.Value != 2 || hi.Value != 8 {
		t.Errorf("bounds %v..%v", ast.ExprString(d.Lo), ast.ExprString(d.Hi))
	}
	s := ast.StmtString(res.Body[0])
	if !strings.Contains(s, "- 1") && !strings.Contains(s, "-1") {
		t.Errorf("offset subscript missing in %q", s)
	}
}

func TestWholeArrayAndScalarRHS(t *testing.T) {
	res := scalarizeSrc(t, `
routine f(n)
real a(n, n), d(n, n)
a = 3
a = d
end
`, map[string]int{"n": 4})
	if res.StmtsExpanded != 2 || res.LoopsCreated != 4 {
		t.Fatalf("expanded=%d loops=%d\n%s", res.StmtsExpanded, res.LoopsCreated, bodyString(res))
	}
	// Second statement reads d elementwise.
	d2 := res.Body[1].(*ast.DoStmt)
	inner := d2.Body[0].(*ast.DoStmt).Body[0].(*ast.AssignStmt)
	ref, ok := inner.RHS.(*ast.Ref)
	if !ok || ref.Name != "d" || len(ref.Subs) != 2 || ref.Subs[0].Kind != ast.SubExpr {
		t.Errorf("rhs = %v", ast.ExprString(inner.RHS))
	}
}

func TestStridedSections(t *testing.T) {
	res := scalarizeSrc(t, `
routine f(n)
real b(n, n)
b(1:n, 1:n:2) = 1
end
`, map[string]int{"n": 8})
	outer := res.Body[0].(*ast.DoStmt)
	innerDo := outer.Body[0].(*ast.DoStmt)
	if innerDo.Step == nil {
		t.Fatalf("strided dim should keep step:\n%s", bodyString(res))
	}
	st, _ := innerDo.Step.(*ast.NumLit)
	if st == nil || st.Value != 2 {
		t.Errorf("step = %v", ast.ExprString(innerDo.Step))
	}
}

func TestMismatchedStepsNormalize(t *testing.T) {
	// Different strides on the two sides force the normalized form
	// (loop from 0 with explicit affine subscripts).
	res := scalarizeSrc(t, `
routine f(n)
real a(n), c(n)
c(1:n:2) = a(1:n/2)
end
`, map[string]int{"n": 8})
	d := res.Body[0].(*ast.DoStmt)
	lo, _ := d.Lo.(*ast.NumLit)
	if lo == nil || lo.Value != 0 {
		t.Fatalf("normalized loop should start at 0:\n%s", bodyString(res))
	}
	s := bodyString(res)
	if !strings.Contains(s, "2 *") {
		t.Errorf("normalized form should scale the index: %s", s)
	}
}

func TestConformanceError(t *testing.T) {
	r, err := parser.ParseRoutine(`
routine f(n)
real a(n), c(n)
c(1:n) = a(1:n-1)
end
`)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sem.Analyze(r, map[string]int{"n": 8}, sem.Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Scalarize(u); err == nil || !strings.Contains(err.Error(), "non-conforming") {
		t.Errorf("want non-conforming error, got %v", err)
	}
}

func TestReductionLeftIntact(t *testing.T) {
	res := scalarizeSrc(t, `
routine f(n)
real g(n, n)
real x
do i = 1, n
x = sum(g(i, 1:n))
enddo
end
`, map[string]int{"n": 8})
	d := res.Body[0].(*ast.DoStmt)
	as, ok := d.Body[0].(*ast.AssignStmt)
	if !ok {
		t.Fatalf("sum statement should remain an assignment:\n%s", bodyString(res))
	}
	call, ok := as.RHS.(*ast.Call)
	if !ok || call.Func != "sum" {
		t.Fatalf("rhs = %v", ast.ExprString(as.RHS))
	}
	ref := call.Args[0].(*ast.Ref)
	if ref.Subs[1].Kind != ast.SubRange {
		t.Error("sum argument section must keep its range subscript")
	}
}

func TestSumOverWholeArrayExpanded(t *testing.T) {
	res := scalarizeSrc(t, `
routine f(n)
real g(n, n)
real x
x = sum(g)
end
`, map[string]int{"n": 4})
	as := res.Body[0].(*ast.AssignStmt)
	call := as.RHS.(*ast.Call)
	ref, ok := call.Args[0].(*ast.Ref)
	if !ok || len(ref.Subs) != 2 || ref.Subs[0].Kind != ast.SubRange {
		t.Fatalf("whole-array sum arg = %v", ast.ExprString(call.Args[0]))
	}
}

func TestSumInArrayStatementRejected(t *testing.T) {
	r, _ := parser.ParseRoutine(`
routine f(n)
real a(n), g(n, n)
a(1:n) = sum(g)
end
`)
	u, err := sem.Analyze(r, map[string]int{"n": 4}, sem.Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Scalarize(u); err == nil {
		t.Error("SUM inside an array statement must be rejected")
	}
}

func TestNestedControlPreserved(t *testing.T) {
	res := scalarizeSrc(t, `
routine f(n)
real a(n), b(n)
real x
do k = 1, 2
if (x > 0) then
a(1:n) = 1
else
b(1:n) = 2
endif
enddo
end
`, map[string]int{"n": 4})
	d := res.Body[0].(*ast.DoStmt)
	iff := d.Body[0].(*ast.IfStmt)
	if _, ok := iff.Then[0].(*ast.DoStmt); !ok {
		t.Errorf("then branch should hold the scalarized loop:\n%s", bodyString(res))
	}
	if _, ok := iff.Else[0].(*ast.DoStmt); !ok {
		t.Errorf("else branch should hold the scalarized loop:\n%s", bodyString(res))
	}
}

// TestLabelsPropagate holds that a statement the scalarizer made reports
// the line of the array statement it came from: it keeps the source
// position cfg.Build derives the L<line> label from.
func TestLabelsPropagate(t *testing.T) {
	res := scalarizeSrc(t, `
routine f(n)
real a(n)
a(1:n) = 1
end
`, map[string]int{"n": 4})
	g := cfg.Build(res.Body)
	if len(g.Stmts) != 1 || g.Stmts[0].Loops == nil {
		t.Fatalf("want one statement in the loop the scalarizer made:\n%s", g)
	}
	if got := g.Stmts[0].Label(); got != "L4" {
		t.Errorf("scalarized statement is labelled %q, want L4 of its source line", got)
	}
}
