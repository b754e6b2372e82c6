package lin

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
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
	if len(f.Terms) != 0 {
		t.Errorf("terms of zero form = %v", f.Terms)
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

// mapForm is the map-based affine form: the model Form's sorted terms
// are held against. A nil or empty Coef map is the constant Const; zero
// coefficients are never stored.
type mapForm struct {
	Const int
	Coef  map[string]int
}

func (f mapForm) clone() mapForm {
	out := mapForm{Const: f.Const, Coef: map[string]int{}}
	for k, v := range f.Coef {
		out.Coef[k] = v
	}
	return out
}

func (f *mapForm) set(name string, c int) {
	if c == 0 {
		delete(f.Coef, name)
		return
	}
	f.Coef[name] = c
}

func (f mapForm) add(g mapForm, sign int) mapForm {
	out := f.clone()
	out.Const += sign * g.Const
	for k, v := range g.Coef {
		out.set(k, out.Coef[k]+sign*v)
	}
	return out
}

func (f mapForm) scale(c int) mapForm {
	out := mapForm{Const: f.Const * c, Coef: map[string]int{}}
	for k, v := range f.Coef {
		out.set(k, v*c)
	}
	return out
}

func (f mapForm) subst(name string, val int) mapForm {
	out := f.clone()
	out.Const += f.Coef[name] * val
	delete(out.Coef, name)
	return out
}

func (f mapForm) vars() []string {
	out := []string{}
	for k := range f.Coef {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (f mapForm) constDiff(g mapForm) (int, bool) {
	if len(f.Coef) != len(g.Coef) {
		return 0, false
	}
	for k, v := range f.Coef {
		if g.Coef[k] != v {
			return 0, false
		}
	}
	return f.Const - g.Const, true
}

func (f mapForm) eval(env map[string]int) (int, bool) {
	v := f.Const
	for k, c := range f.Coef {
		x, ok := env[k]
		if !ok {
			return 0, false
		}
		v += c * x
	}
	return v, true
}

func (f mapForm) String() string {
	var parts []string
	for _, v := range f.vars() {
		switch c := f.Coef[v]; c {
		case 1:
			parts = append(parts, v)
		case -1:
			parts = append(parts, "-"+v)
		default:
			parts = append(parts, fmt.Sprintf("%d*%s", c, v))
		}
	}
	if f.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprint(f.Const))
	}
	return strings.ReplaceAll(strings.Join(parts, "+"), "+-", "-")
}

// model converts a Form to the map model, failing when its terms are not
// sorted, repeat a variable or hold a zero coefficient.
func model(t *testing.T, what string, f Form) mapForm {
	t.Helper()
	m := mapForm{Const: f.Const, Coef: map[string]int{}}
	for k, term := range f.Terms {
		if term.Coef == 0 {
			t.Fatalf("%s = %v: zero coefficient for %s", what, f, term.Var)
		}
		if k > 0 && f.Terms[k-1].Var >= term.Var {
			t.Fatalf("%s = %v: terms not strictly sorted", what, f)
		}
		m.Coef[term.Var] = term.Coef
	}
	return m
}

// TestFormMatchesMapModel: over random forms of up to four variables
// with coefficients in ±5 — built by Add, Sub and Scale so that terms
// cancel — every operation gives what the map model gives, and every
// result keeps its terms sorted with no zero coefficient.
func TestFormMatchesMapModel(t *testing.T) {
	names := []string{"i", "j", "k", "n"}
	rng := rand.New(rand.NewSource(1))
	random := func() (Form, mapForm) {
		f, m := ConstForm(rng.Intn(11)-5), mapForm{Coef: map[string]int{}}
		m.Const = f.Const
		for n := rng.Intn(5); n > 0; n-- {
			v, c := names[rng.Intn(len(names))], rng.Intn(11)-5
			term := Var(v).Scale(c)
			if rng.Intn(2) == 0 {
				f, m = f.Add(term), m.add(mapForm{Coef: map[string]int{v: c}}, 1)
			} else {
				f, m = f.Sub(term), m.add(mapForm{Coef: map[string]int{v: c}}, -1)
			}
		}
		return f, m
	}
	same := func(what string, got Form, want mapForm) {
		t.Helper()
		g := model(t, what, got)
		if d, ok := g.constDiff(want); !ok || d != 0 {
			t.Fatalf("%s = %v, model %v", what, got, want)
		}
	}
	env := map[string]int{"i": 3, "j": -2, "k": 7}
	for trial := 0; trial < 5000; trial++ {
		f, fm := random()
		g, gm := random()
		same("f", f, fm)
		same("f+g", f.Add(g), fm.add(gm, 1))
		same("f-g", f.Sub(g), fm.add(gm, -1))
		same("f-f", f.Sub(f), mapForm{Coef: map[string]int{}})
		c := rng.Intn(11) - 5
		same("c*f", f.Scale(c), fm.scale(c))
		v, val := names[rng.Intn(len(names))], rng.Intn(11)-5
		same("f[v:=val]", f.Subst(v, val), fm.subst(v, val))
		if f.CoefOf(v) != fm.Coef[v] {
			t.Fatalf("CoefOf(%v, %s) = %d, model %d", f, v, f.CoefOf(v), fm.Coef[v])
		}
		d, ok := f.ConstDiff(g)
		wd, wok := fm.constDiff(gm)
		if ok != wok || d != wd {
			t.Fatalf("ConstDiff(%v, %v) = %d %v, model %d %v", f, g, d, ok, wd, wok)
		}
		if f.Equal(g) != (wok && wd == 0) {
			t.Fatalf("Equal(%v, %v) = %v", f, g, f.Equal(g))
		}
		x, ok := f.Eval(env)
		wx, wok := fm.eval(env)
		if ok != wok || x != wx {
			t.Fatalf("Eval(%v) = %d %v, model %d %v", f, x, ok, wx, wok)
		}
		var got []string
		for _, tm := range f.Terms {
			got = append(got, tm.Var)
		}
		if want := fm.vars(); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("variables of %v = %v, model %v", f, got, want)
		}
		name, coef, konst, ok := f.SingleVar()
		if want := len(fm.Coef) == 1; ok != want || ok && (fm.Coef[name] != coef || konst != fm.Const) {
			t.Fatalf("SingleVar(%v) = %q %d %d %v", f, name, coef, konst, ok)
		}
		k, ok := f.IsConst()
		if ok != (len(fm.Coef) == 0) || ok && k != fm.Const {
			t.Fatalf("IsConst(%v) = %d %v", f, k, ok)
		}
		if f.String() != fm.String() {
			t.Fatalf("String = %q, model %q", f.String(), fm.String())
		}
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
