package lin

import (
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	f := Var("i").Scale(2).AddConst(3) // 2i + 3
	g := Var("j").Sub(Var("i"))        // j - i
	sum := f.Add(g)                    // i + j + 3
	if sum.CoefOf("i") != 1 || sum.CoefOf("j") != 1 || sum.Const != 3 {
		t.Fatalf("sum = %v", sum)
	}
	if got := sum.String(); got != "i+j+3" {
		t.Errorf("String = %q", got)
	}
	v, ok := sum.Eval(map[string]int{"i": 2, "j": 5})
	if !ok || v != 10 {
		t.Errorf("Eval = %d, %v", v, ok)
	}
	if _, ok := sum.Eval(map[string]int{"i": 2}); ok {
		t.Error("Eval with missing variable must fail")
	}
}

func TestZeroCoefficientsVanish(t *testing.T) {
	f := Var("i").Sub(Var("i"))
	if c, ok := f.IsConst(); !ok || c != 0 {
		t.Fatalf("i - i = %v, want constant 0", f)
	}
	if len(f.Vars()) != 0 {
		t.Errorf("Vars of zero form = %v", f.Vars())
	}
}

func TestSingleVar(t *testing.T) {
	f := Var("k").Scale(-3).AddConst(7)
	name, coef, k, ok := f.SingleVar()
	if !ok || name != "k" || coef != -3 || k != 7 {
		t.Fatalf("SingleVar = %q %d %d %v", name, coef, k, ok)
	}
	if _, _, _, ok := ConstForm(4).SingleVar(); ok {
		t.Error("constant is not single-var")
	}
	if _, _, _, ok := Var("a").Add(Var("b")).SingleVar(); ok {
		t.Error("two-var form is not single-var")
	}
}

func TestConstDiff(t *testing.T) {
	f := Var("i").AddConst(4)
	g := Var("i").AddConst(1)
	if d, ok := f.ConstDiff(g); !ok || d != 3 {
		t.Errorf("ConstDiff = %d, %v", d, ok)
	}
	if _, ok := f.ConstDiff(Var("j")); ok {
		t.Error("ConstDiff across different variables must fail")
	}
}

// Property: evaluation is a ring homomorphism for Add/Sub/Scale.
func TestEvalHomomorphism(t *testing.T) {
	mk := func(ci, cj, c int8) Form {
		return Var("i").Scale(int(ci)).Add(Var("j").Scale(int(cj))).AddConst(int(c))
	}
	f := func(ai, aj, ac, bi, bj, bc, vi, vj int8) bool {
		a := mk(ai, aj, ac)
		b := mk(bi, bj, bc)
		env := map[string]int{"i": int(vi), "j": int(vj)}
		av, _ := a.Eval(env)
		bv, _ := b.Eval(env)
		s, _ := a.Add(b).Eval(env)
		d, _ := a.Sub(b).Eval(env)
		m, _ := a.Scale(3).Eval(env)
		return s == av+bv && d == av-bv && m == 3*av
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Equal is reflexive and agrees with zero difference.
func TestEqualQuick(t *testing.T) {
	f := func(ci, cj, c int8) bool {
		a := Var("i").Scale(int(ci)).Add(Var("j").Scale(int(cj))).AddConst(int(c))
		b := Var("j").Scale(int(cj)).Add(Var("i").Scale(int(ci))).AddConst(int(c))
		return a.Equal(b) && a.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: ConstDiff and Equal agree with the difference computed by
// Sub, also when a term cancels on one side only.
func TestConstDiffMatchesSub(t *testing.T) {
	mk := func(ci, cj, c int8) Form {
		return Var("i").Scale(int(ci)).Add(Var("j").Scale(int(cj))).AddConst(int(c))
	}
	f := func(ai, aj, ac, bi, bj, bc int8) bool {
		a, b := mk(ai%3, aj%3, ac), mk(bi%3, bj%3, bc)
		want, wantOK := a.Sub(b).IsConst()
		got, gotOK := a.ConstDiff(b)
		return gotOK == wantOK && (!gotOK || got == want) && a.Equal(b) == (wantOK && want == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: Subst binds one variable and agrees with Eval.
func TestSubst(t *testing.T) {
	f := func(ci, cj, c, vi, vj int8) bool {
		a := Var("i").Scale(int(ci)).Add(Var("j").Scale(int(cj))).AddConst(int(c))
		s := a.Subst("i", int(vi))
		want, _ := a.Eval(map[string]int{"i": int(vi), "j": int(vj)})
		got, ok := s.Eval(map[string]int{"j": int(vj)})
		return ok && got == want && s.CoefOf("i") == 0 && s.CoefOf("j") == int(cj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if c, ok := Var("i").AddConst(2).Subst("i", 5).IsConst(); !ok || c != 7 {
		t.Errorf("i+2 at i=5 = %d, %v", c, ok)
	}
}

func TestDependsOnly(t *testing.T) {
	f := Var("i").Add(Var("j"))
	if !f.DependsOnly(map[string]bool{"i": true, "j": true}) {
		t.Error("DependsOnly should accept full set")
	}
	if f.DependsOnly(map[string]bool{"i": true}) {
		t.Error("DependsOnly should reject missing j")
	}
}

func TestStringForms(t *testing.T) {
	cases := []struct {
		f    Form
		want string
	}{
		{ConstForm(0), "0"},
		{ConstForm(-4), "-4"},
		{Var("i"), "i"},
		{Var("i").Scale(-1), "-i"},
		{Var("i").Scale(2).AddConst(-3), "2*i-3"},
	}
	for _, tc := range cases {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("String(%#v) = %q, want %q", tc.f, got, tc.want)
		}
	}
}
