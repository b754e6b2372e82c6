package sem

import (
	"strings"
	"testing"
	"time"

	"gcao/internal/ast"
	"gcao/internal/dist"
	"gcao/internal/parser"
)

func analyze(t *testing.T, src string, params map[string]int, procs int) *Unit {
	t.Helper()
	r, err := parser.ParseRoutine(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u, err := Analyze(r, params, Options{Procs: procs})
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	return u
}

func analyzeErr(t *testing.T, src string, params map[string]int) error {
	t.Helper()
	r, err := parser.ParseRoutine(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Analyze(r, params, Options{Procs: 4})
	if err == nil {
		t.Fatal("want semantic error, got none")
	}
	return err
}

func TestSymbolTables(t *testing.T) {
	u := analyze(t, `
routine f(n)
real a(n, 2*n), b(0:n)
real x
integer k
a(1, 1) = x
end
`, map[string]int{"n": 8}, 4)
	a := u.Arrays["a"]
	if a == nil || a.Rank() != 2 || a.Hi[1] != 16 || a.Size() != 8*16 {
		t.Fatalf("array a = %+v", a)
	}
	b := u.Arrays["b"]
	if b.Lo[0] != 0 || b.Hi[0] != 8 {
		t.Errorf("array b bounds = %v..%v", b.Lo, b.Hi)
	}
	if u.Scalars["x"] == nil || u.Scalars["k"] == nil || !u.Scalars["n"].IsParam {
		t.Error("scalar table incomplete")
	}
	if a.Dist != nil {
		t.Error("undistributed array should be replicated")
	}
}

func TestDistributionBinding(t *testing.T) {
	u := analyze(t, `
routine f(n)
real a(n, n), g(n, n, n)
!hpf$ processors p(2, 3)
!hpf$ distribute a(block, block) onto p
!hpf$ distribute g(*, block, block)
a(1, 1) = 0
end
`, map[string]int{"n": 12}, 0)
	if u.Grid.NumProcs() != 6 {
		t.Fatalf("grid = %v", u.Grid)
	}
	a := u.Arrays["a"]
	if a.Dist == nil || a.Dist.Dims[0].Kind != dist.Block {
		t.Fatalf("a dist = %+v", a.Dist)
	}
	g := u.Arrays["g"]
	if g.Dist == nil || g.Dist.Dims[0].Kind != dist.Star || g.Dist.Dims[1].GridDim != 0 {
		t.Fatalf("g dist = %+v", g.Dist)
	}
}

func TestDefaultGrid(t *testing.T) {
	u := analyze(t, `
routine f(n)
real a(n, n)
!hpf$ distribute a(block, block)
a(1, 1) = 0
end
`, map[string]int{"n": 8}, 8)
	if u.Grid.Rank() != 2 || u.Grid.NumProcs() != 8 {
		t.Errorf("default grid for 2-d dist and 8 procs = %v", u.Grid)
	}
	u1 := analyze(t, `
routine f(n)
real a(n)
!hpf$ distribute a(block)
a(1) = 0
end
`, map[string]int{"n": 8}, 6)
	if u1.Grid.Rank() != 1 || u1.Grid.NumProcs() != 6 {
		t.Errorf("default 1-d grid = %v", u1.Grid)
	}
}

func TestEvalInt(t *testing.T) {
	u := analyze(t, `
routine f(n, m)
real a(n)
a(1) = 0
end
`, map[string]int{"n": 10, "m": 3}, 4)
	r, _ := parser.ParseRoutine("routine g(n, m)\nreal b((n+m)*2-1)\nb(1)=0\nend\n")
	u2, err := Analyze(r, map[string]int{"n": 10, "m": 3}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if u2.Arrays["b"].Hi[0] != 25 {
		t.Errorf("bound eval = %d, want 25", u2.Arrays["b"].Hi[0])
	}
	if v, err := u.EvalIntEnv(&ast.Ident{Name: "i"}, map[string]int{"i": 7}); err != nil || v != 7 {
		t.Errorf("EvalIntEnv = %d, %v", v, err)
	}
	if _, err := u.EvalInt(&ast.Ident{Name: "zzz"}); err == nil {
		t.Error("unknown symbol must not be compile-time constant")
	}
}

func TestSemanticErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
		params             map[string]int
	}{
		{"missing param", "routine f(n)\nreal a(n)\na(1)=0\nend\n", "no value supplied", map[string]int{}},
		{"dup decl", "routine f()\nreal a(4)\ninteger a\na(1)=0\nend\n", "declared twice", nil},
		{"undeclared", "routine f()\nreal a(4)\na(1) = q\nend\n", "undeclared", nil},
		{"rank mismatch", "routine f()\nreal a(4, 4)\na(1) = 0\nend\n", "rank", nil},
		{"subscripted scalar", "routine f()\nreal x\nreal a(4)\na(1) = x(2)\nend\n", "not an array", nil},
		{"distribute unknown", "routine f()\nreal a(4)\n!hpf$ distribute b(block)\na(1)=0\nend\n", "undeclared array", nil},
		{"distribute rank", "routine f()\nreal a(4)\n!hpf$ distribute a(block, block)\na(1)=0\nend\n", "rank", nil},
		{"empty dim", "routine f(n)\nreal a(n)\na(1)=0\nend\n", "empty dimension", map[string]int{"n": -1}},
		{"loop index is array", "routine f()\nreal a(4)\ndo a = 1, 3\nenddo\nend\n", "loop index", nil},
		{"assign to index", "routine f()\nreal a(4)\ndo i = 1, 3\ni = 2\nenddo\nend\n", "loop index", nil},
		{"assign to param", "routine f(n)\nreal a(n)\nn = 2\nend\n", "parameter", map[string]int{"n": 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.params == nil {
				tc.params = map[string]int{}
			}
			r, err := parser.ParseRoutine(tc.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, err = Analyze(r, tc.params, Options{Procs: 4})
			if err == nil {
				t.Fatalf("want error containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestLoopScoping(t *testing.T) {
	// Loop variables are implicitly declared within their loop.
	u := analyze(t, `
routine f(n)
real a(n)
do i = 1, n
a(i) = i
enddo
end
`, map[string]int{"n": 4}, 2)
	if u.Arrays["a"] == nil {
		t.Fatal("array missing")
	}
	// Using the index outside its loop is an error.
	analyzeErr(t, `
routine f(n)
real a(n)
do i = 1, n
a(i) = 0
enddo
a(1) = i
end
`, map[string]int{"n": 4})
}

// TestNestedSubscriptsCheckOnce: a subscript nested in a subscript
// (a(a(a(...)))) is checked once. When the checker walked into a
// reference's subscripts again after checking them, the work doubled
// with every level, and 40 levels — a 200-byte source — held a compile
// for hours.
func TestNestedSubscriptsCheckOnce(t *testing.T) {
	const depth = 5000
	src := "routine f()\nreal a(4)\nreal x\nx = " + strings.Repeat("a(", depth) + "1" + strings.Repeat(")", depth) + "\nend\n"
	r, err := parser.ParseRoutine(src)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := Analyze(r, nil, Options{})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("checking %d nested subscripts did not finish in 20 s", depth)
	}
}
