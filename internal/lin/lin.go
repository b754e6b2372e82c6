// Package lin provides linear (affine) forms over named integer
// variables: c0 + Σ ci·vi. The dependence tester uses them to compare
// subscripts, and the available-section machinery uses them as symbolic
// section bounds, so that a section like g(i-1, 1:n) keeps the outer
// loop variable i symbolic while n is folded to its compile-time value.
package lin

import (
	"fmt"
	"sort"
	"strings"
)

// Form is an affine form c0 + Σ Coef[v]·v. A nil Coef map means the
// form is the constant Const. Zero-coefficient entries are never
// stored. A Form is an immutable value: results may share their Coef
// map with an operand, so nothing outside this package's constructors
// may write to one.
type Form struct {
	Const int
	Coef  map[string]int
}

// Const returns a constant form.
func ConstForm(c int) Form { return Form{Const: c} }

// Var returns the form 1·name.
func Var(name string) Form {
	return Form{Coef: map[string]int{name: 1}}
}

// clone returns a deep copy.
func (f Form) clone() Form {
	out := Form{Const: f.Const}
	if len(f.Coef) > 0 {
		out.Coef = make(map[string]int, len(f.Coef))
		for k, v := range f.Coef {
			out.Coef[k] = v
		}
	}
	return out
}

func (f *Form) set(name string, c int) {
	if c == 0 {
		delete(f.Coef, name)
		return
	}
	if f.Coef == nil {
		f.Coef = map[string]int{}
	}
	f.Coef[name] = c
}

// Add returns f + g.
func (f Form) Add(g Form) Form {
	if len(g.Coef) == 0 {
		return f.AddConst(g.Const)
	}
	out := f.clone()
	out.Const += g.Const
	for k, v := range g.Coef {
		out.set(k, out.Coef[k]+v)
	}
	return out
}

// Sub returns f - g.
func (f Form) Sub(g Form) Form {
	if len(g.Coef) == 0 {
		return f.AddConst(-g.Const)
	}
	out := f.clone()
	out.Const -= g.Const
	for k, v := range g.Coef {
		out.set(k, out.Coef[k]-v)
	}
	return out
}

// Scale returns c·f.
func (f Form) Scale(c int) Form {
	if c == 0 {
		return Form{}
	}
	out := Form{Const: f.Const * c}
	for k, v := range f.Coef {
		out.set(k, v*c)
	}
	return out
}

// AddConst returns f + c.
func (f Form) AddConst(c int) Form {
	return Form{Const: f.Const + c, Coef: f.Coef}
}

// Subst returns f with the variable name bound to the value val.
func (f Form) Subst(name string, val int) Form {
	c := f.Coef[name]
	if c == 0 {
		return f
	}
	out := Form{Const: f.Const + c*val}
	if len(f.Coef) > 1 {
		out.Coef = make(map[string]int, len(f.Coef)-1)
		for k, v := range f.Coef {
			if k != name {
				out.Coef[k] = v
			}
		}
	}
	return out
}

// IsConst reports whether the form has no variable terms, returning
// the constant.
func (f Form) IsConst() (int, bool) {
	if len(f.Coef) == 0 {
		return f.Const, true
	}
	return 0, false
}

// CoefOf returns the coefficient of a variable.
func (f Form) CoefOf(name string) int { return f.Coef[name] }

// Vars returns the variables with non-zero coefficients, sorted.
func (f Form) Vars() []string {
	out := make([]string, 0, len(f.Coef))
	for k := range f.Coef {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SingleVar reports whether f = coef·name + konst for exactly one
// variable.
func (f Form) SingleVar() (name string, coef, konst int, ok bool) {
	if len(f.Coef) != 1 {
		return "", 0, 0, false
	}
	for k, v := range f.Coef {
		return k, v, f.Const, true
	}
	return "", 0, 0, false
}

// Equal reports structural equality (same polynomial).
func (f Form) Equal(g Form) bool {
	d, ok := f.ConstDiff(g)
	return ok && d == 0
}

// ConstDiff returns f - g when the difference is a constant: the two
// forms have the same variable terms (zero coefficients are never
// stored, so equal lengths and one-way agreement suffice).
func (f Form) ConstDiff(g Form) (int, bool) {
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

// Eval evaluates the form under an environment; missing variables
// report ok=false.
func (f Form) Eval(env map[string]int) (int, bool) {
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

// DependsOnly reports whether every variable of f is in the allowed
// set.
func (f Form) DependsOnly(allowed map[string]bool) bool {
	for k := range f.Coef {
		if !allowed[k] {
			return false
		}
	}
	return true
}

// String renders the form.
func (f Form) String() string {
	var parts []string
	for _, v := range f.Vars() {
		c := f.Coef[v]
		switch c {
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
	s := strings.Join(parts, "+")
	return strings.ReplaceAll(s, "+-", "-")
}
