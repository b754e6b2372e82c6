package dep

import (
	"reflect"
	"testing"

	"gcao/internal/ast"
	"gcao/internal/cfg"
	"gcao/internal/dom"
	"gcao/internal/lin"
	"gcao/internal/parser"
	"gcao/internal/sem"
	"gcao/internal/ssa"
)

type ctx struct {
	a    *Analysis
	info *ssa.Info
	g    *cfg.Graph
}

func build(t *testing.T, src string, params map[string]int) *ctx {
	t.Helper()
	r, err := parser.ParseRoutine(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u, err := sem.Analyze(r, params, sem.Options{Procs: 4})
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	g := cfg.Build(r.Body)
	tr := dom.New(g)
	info := ssa.Build(g, tr, func(n string) bool {
		_, ok := u.Arrays[n]
		return ok
	})
	if err := info.Validate(); err != nil {
		t.Fatal(err)
	}
	return &ctx{a: New(u), info: info, g: g}
}

// useOf returns the use of array name at the k-th occurrence.
func (c *ctx) useOf(t *testing.T, name string, k int) *ssa.Use {
	t.Helper()
	n := 0
	for _, u := range c.info.Uses {
		if u.Var == name {
			if n == k {
				return u
			}
			n++
		}
	}
	t.Fatalf("no use #%d of %q", k, name)
	return nil
}

// defOf returns the k-th regular def of an array.
func (c *ctx) defOf(t *testing.T, name string, k int) *ssa.RegularDef {
	t.Helper()
	n := 0
	for _, d := range c.info.Defs {
		if d.Var == name {
			if n == k {
				return d
			}
			n++
		}
	}
	t.Fatalf("no def #%d of %q", k, name)
	return nil
}

func TestSubForm(t *testing.T) {
	c := build(t, `
routine f(n)
real a(n)
do i = 1, n
a(i) = 0
enddo
end
`, map[string]int{"n": 8})
	st := c.g.Stmts[0]
	f, ok := subForm(st.Assign.LHS.Subs[0].X, c.a.Unit.Params, varForms{})
	if !ok || f.CoefOf("i") != 1 || f.Const != 0 {
		t.Errorf("subForm(i) = %v, %v", f, ok)
	}
}

func TestCarriedDependence(t *testing.T) {
	// a(i) = a(i-1): flow dependence carried at level 1 with distance 1.
	c := build(t, `
routine f(n)
real a(n)
do i = 2, n
a(i) = a(i - 1)
enddo
end
`, map[string]int{"n": 8})
	u := c.useOf(t, "a", 0)
	d := c.defOf(t, "a", 0)
	dirs, feasible := c.a.Directions(d.Stmt, d.LHS, u.Stmt, u.Ref)
	if !feasible || len(dirs) != 1 || dirs[0] != DirGt {
		t.Fatalf("dirs = %v feasible=%v", dirs, feasible)
	}
	if !c.a.IsArrayDep(d, u, 1) {
		t.Error("level-1 dependence expected")
	}
	if got := c.a.DepLevel(d, u); got != 1 {
		t.Errorf("DepLevel = %d, want 1", got)
	}
}

func TestAntiDirectionNotFlow(t *testing.T) {
	// a(i) = a(i+1): the "dependence" runs backward (use of an element
	// written in a LATER iteration) — not a flow dependence, so no
	// placement constraint.
	c := build(t, `
routine f(n)
real a(n)
do i = 1, n - 1
a(i) = a(i + 1)
enddo
end
`, map[string]int{"n": 8})
	u := c.useOf(t, "a", 0)
	d := c.defOf(t, "a", 0)
	dirs, feasible := c.a.Directions(d.Stmt, d.LHS, u.Stmt, u.Ref)
	if !feasible || dirs[0] != DirLt {
		t.Fatalf("dirs = %v", dirs)
	}
	if c.a.IsArrayDep(d, u, 1) {
		t.Error("backward direction must not count as flow dependence")
	}
	if got := c.a.DepLevel(d, u); got != 0 {
		t.Errorf("DepLevel = %d, want 0", got)
	}
}

func TestZIVDisjoint(t *testing.T) {
	// Writes to row 1 can never feed reads of row 2.
	c := build(t, `
routine f(n)
real a(n, n)
do i = 1, n
a(1, i) = a(2, i)
enddo
end
`, map[string]int{"n": 8})
	u := c.useOf(t, "a", 0)
	d := c.defOf(t, "a", 0)
	if _, feasible := c.a.Directions(d.Stmt, d.LHS, u.Stmt, u.Ref); feasible {
		t.Error("ZIV-disjoint refs must be independent")
	}
}

func TestStrideLatticeDisjoint(t *testing.T) {
	// The Fig. 4 case: writes to even columns never feed reads of odd
	// columns even though the loops differ.
	c := build(t, `
routine f(n)
real b(n, n), c2(n, n)
do i = 1, n
do j = 2, n, 2
b(i, j) = 2
enddo
enddo
do i = 2, n
do j = 1, n, 2
c2(i, j) = b(i - 1, j)
enddo
enddo
end
`, map[string]int{"n": 8})
	u := c.useOf(t, "b", 0)
	d := c.defOf(t, "b", 0)
	if _, feasible := c.a.Directions(d.Stmt, d.LHS, u.Stmt, u.Ref); feasible {
		t.Error("even/odd column lattices must be disjoint")
	}
	if c.a.IsArrayDep(d, u, 0) {
		t.Error("IsArrayDep must be false for disjoint lattices")
	}
}

func TestSameIterationEqualDirection(t *testing.T) {
	// Def and use of the same plane index inside a sweep loop: the
	// direction at the sweep level is fixed to "=", so the dependence
	// pins communication at that level (the conservative ≥0 reading of
	// Fig. 8d the paper's counts require).
	c := build(t, `
routine f(n)
real g(n, n), w(n, n)
do it = 1, 2
do i = 2, n - 1
do j = 1, n
w(i, j) = g(i, j)
enddo
do j = 1, n
g(i, j) = w(i, j)
enddo
enddo
enddo
end
`, map[string]int{"n": 8})
	u := c.useOf(t, "g", 0) // g(i,j) read in the w statement
	d := c.defOf(t, "g", 0) // g(i,j) written later in the body
	dirs, feasible := c.a.Directions(d.Stmt, d.LHS, u.Stmt, u.Ref)
	if !feasible || len(dirs) != 2 {
		t.Fatalf("dirs = %v", dirs)
	}
	if dirs[0] != DirAll || dirs[1] != DirEq {
		t.Fatalf("dirs = %v, want [* =]", dirs)
	}
	if !c.a.IsArrayDep(d, u, 2) {
		t.Error("level-2 (i loop) dependence expected under the >=0 rule")
	}
	if got := c.a.DepLevel(d, u); got != 2 {
		t.Errorf("DepLevel = %d, want 2", got)
	}
}

func TestEntryDefAlwaysDepends(t *testing.T) {
	c := build(t, `
routine f(n)
real a(n)
do i = 2, n
a(i) = a(i - 1)
enddo
end
`, map[string]int{"n": 8})
	u := c.useOf(t, "a", 0)
	entry := &ssa.EntryDef{Var: "a", Blk: c.g.EntryBlock}
	if !c.a.IsArrayDep(entry, u, 5) {
		t.Error("ENTRY pseudo-def must always depend (Fig. 8d first line)")
	}
}

func TestReachingRegularDefs(t *testing.T) {
	c := build(t, `
routine f(n)
real a(n)
real x
if (x > 0) then
a(1) = 1
else
a(2) = 2
endif
do i = 2, n
a(i) = a(i - 1)
enddo
end
`, map[string]int{"n": 8})
	u := c.useOf(t, "a", 0)
	var seen ssa.Marks
	c.info.NewMarks(&seen)
	for pass := 0; pass < 2; pass++ { // the second walk reuses the marks
		regs, entry := ReachingRegularDefs(u, &seen, nil)
		if len(regs) != 3 {
			t.Errorf("pass %d: reaching regular defs = %d, want 3 (both branches + loop def)", pass, len(regs))
		}
		if entry == nil || entry.Var != "a" {
			t.Errorf("pass %d: ENTRY should be reachable through the preserving chain", pass)
		}
	}
}

func TestRangeSubscriptConservative(t *testing.T) {
	// Reduction use with a range subscript: directions unconstrained,
	// dependence assumed.
	c := build(t, `
routine f(n)
real g(n, n)
real x
do i = 2, n
do j = 1, n
g(i, j) = 1
enddo
x = sum(g(i - 1, 1:n))
enddo
end
`, map[string]int{"n": 8})
	u := c.useOf(t, "g", 0)
	if !u.InReduction {
		t.Fatal("expected the sum use")
	}
	d := c.defOf(t, "g", 0)
	dirs, feasible := c.a.Directions(d.Stmt, d.LHS, u.Stmt, u.Ref)
	if !feasible {
		t.Fatal("must be feasible")
	}
	if dirs[0] != DirGt {
		t.Errorf("dim-1 distance is +1: dirs = %v", dirs)
	}
}

func TestDirSetString(t *testing.T) {
	cases := map[DirSet]string{
		DirLt: "<", DirEq: "=", DirGt: ">", DirAll: "*",
		DirEq | DirGt: ">=", 0: "∅",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", in, got, want)
		}
	}
}

// TestRememberedAnswersMatchFresh: an analysis built by New answers every
// (def, use, level) query — the first time and from its tables — as the
// table-less literal does, infeasible pairs included, and the literal
// writes nothing (it is what a shared core.Analysis keeps).
func TestRememberedAnswersMatchFresh(t *testing.T) {
	c := build(t, `
routine f(n)
real a(n, n), b(n, n)
do it = 1, 3
do i = 2, n
do j = 1, n, 2
a(i, j) = b(i - 1, j) + a(i, j + 1)
b(i, j) = a(i - 1, j) + a(2, 3)
enddo
do j = 2, n, 2
b(i, j) = a(i, j - 1) + sum(a(i, 1:n))
enddo
enddo
a(1, 1) = b(n, 2)
enddo
end
`, map[string]int{"n": 8})
	fresh := &Analysis{Unit: c.a.Unit}
	queries, infeasible := 0, 0
	for pass := 0; pass < 2; pass++ {
		for _, d := range c.info.Defs {
			for _, u := range c.info.Uses {
				if u.Var != d.Var {
					continue
				}
				for level := 0; level <= 4; level++ {
					want := fresh.IsArrayDep(d, u, level)
					if got := c.a.IsArrayDep(d, u, level); got != want {
						t.Errorf("pass %d: IsArrayDep(%s, %s, %d) = %v remembered, %v fresh", pass, d, u, level, got, want)
					}
					queries++
				}
				if c.a.DepLevel(d, u) != fresh.DepLevel(d, u) {
					t.Errorf("pass %d: DepLevel(%s, %s) differs", pass, d, u)
				}
				if _, ok := fresh.Directions(d.Stmt, d.LHS, u.Stmt, u.Ref); !ok {
					infeasible++
				}
			}
		}
	}
	if queries == 0 || infeasible == 0 || len(c.a.memo.pairs) == 0 || len(c.a.forms) == 0 {
		t.Fatalf("%d queries, %d infeasible pairs, %d pair classes and %d references remembered: the test exercises nothing", queries, infeasible, len(c.a.memo.pairs), len(c.a.forms))
	}
	if fresh.remembers() || fresh.forms != nil {
		t.Error("the table-less analysis grew tables")
	}
}

// TestStructuralFormsMatchSubForm: the table NewForms fills from the text
// holds exactly the references no subscript of which reads a parameter,
// and under any binding an analysis on top of it gives every subscript of
// every reference the form subForm derives afresh — the parameter-reading
// ones folded under its own binding, remembered in its own table, the
// shared one never growing.
func TestStructuralFormsMatchSubForm(t *testing.T) {
	const src = `
routine f(n, m)
real a(n, n), b(n, n)
do i = 2, n - 1
do j = 1, m
a(i, j) = b(i - 1, 2 * j + 1) + b(n, j) + b(n - i + 1, m) + b(i * j, j / 2) + b(-i + 3, 7)
b(i, n) = a(i, j) + sum(a(i, 1:n)) + a(i, j + n - n)
enddo
enddo
end
`
	first := build(t, src, map[string]int{"n": 8, "m": 4})
	forms := NewForms(first.a.Unit.Routine.Params, first.info)
	structural, size := map[string]bool{}, 0
	for _, use := range first.info.Uses {
		if forms.of[use.ID] != nil {
			structural[ast.ExprString(use.Ref)], size = true, size+1
		}
	}
	for i, d := range first.info.Defs {
		if forms.of[forms.uses+i] != nil {
			structural[ast.ExprString(d.LHS)], size = true, size+1
		}
	}
	want := map[string]bool{"a(i,j)": true, "b((i - 1),((2 * j) + 1))": true, "b((i * j),(j / 2))": true, "b(((-i) + 3),7)": true, "a(i,1:n)": true}
	if !reflect.DeepEqual(structural, want) {
		t.Errorf("structural references %v, want %v", structural, want)
	}
	for _, params := range []map[string]int{{"n": 8, "m": 4}, {"n": 31, "m": 2}} {
		u, err := sem.Analyze(first.a.Unit.Routine, params, sem.Options{Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		a := New(u)
		a.Forms = forms
		refs := 0
		check := func(r *ast.Ref, got []SubscriptForm) {
			refs++
			for k, sub := range r.Subs {
				f, ok := subForm(sub.X, u.Params, varForms{})
				if sub.Kind == ast.SubRange {
					f, ok = lin.Form{}, false
				}
				if got[k].OK != ok || (ok && !got[k].Form.Equal(f)) {
					t.Errorf("n=%d: %s subscript %d: table %v %t, subForm %v %t", params["n"], ast.ExprString(r), k, got[k].Form, got[k].OK, f, ok)
				}
			}
		}
		for _, use := range first.info.Uses {
			check(use.Ref, a.UseForms(use))
		}
		for _, d := range first.info.Defs {
			check(d.LHS, a.DefForms(d))
		}
		if len(a.forms) != refs-size || len(forms.of) != refs || forms.derived != refs-size {
			t.Errorf("n=%d: %d references, %d structural, %d derived under the binding", params["n"], refs, size, len(a.forms))
		}
	}
}
