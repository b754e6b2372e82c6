// Package lin provides linear (affine) forms over named integer
// variables: c0 + Σ ci·vi. The dependence tester uses them to compare
// subscripts, and the available-section machinery uses them as symbolic
// section bounds, so that a section like g(i-1, 1:n) keeps the outer
// loop variable i symbolic while n is folded to its compile-time value.
package lin

import (
	"strconv"
	"strings"
)

// Term is one variable term Coef·Var of a form.
type Term struct {
	Var  string
	Coef int
}

// Form is an affine form Const + Σ Terms[k].Coef·Terms[k].Var. Terms
// are sorted by variable name, name a variable at most once and never
// hold a zero coefficient; a form without terms is the constant Const.
// A Form is an immutable value: results may share their Terms slice
// with an operand, so nothing outside this package's constructors may
// write to one.
type Form struct {
	Const int
	Terms []Term
}

// ConstForm returns a constant form.
func ConstForm(c int) Form { return Form{Const: c} }

// Var returns the form 1·name.
func Var(name string) Form {
	return Form{Terms: []Term{{Var: name, Coef: 1}}}
}

// Add returns f + g.
func (f Form) Add(g Form) Form { return f.merge(g, 1) }

// Sub returns f - g.
func (f Form) Sub(g Form) Form { return f.merge(g, -1) }

// merge returns f + sign·g by one pass over the two sorted term lists.
func (f Form) merge(g Form, sign int) Form {
	if len(g.Terms) == 0 {
		return f.AddConst(sign * g.Const)
	}
	if len(f.Terms) == 0 && sign == 1 {
		return g.AddConst(f.Const)
	}
	out := make([]Term, 0, len(f.Terms)+len(g.Terms))
	i, j := 0, 0
	for i < len(f.Terms) || j < len(g.Terms) {
		switch {
		case j == len(g.Terms) || i < len(f.Terms) && f.Terms[i].Var < g.Terms[j].Var:
			out = append(out, f.Terms[i])
			i++
		case i == len(f.Terms) || g.Terms[j].Var < f.Terms[i].Var:
			out = append(out, Term{Var: g.Terms[j].Var, Coef: sign * g.Terms[j].Coef})
			j++
		default:
			if c := f.Terms[i].Coef + sign*g.Terms[j].Coef; c != 0 {
				out = append(out, Term{Var: f.Terms[i].Var, Coef: c})
			}
			i, j = i+1, j+1
		}
	}
	if len(out) == 0 {
		out = nil
	}
	return Form{Const: f.Const + sign*g.Const, Terms: out}
}

// Scale returns c·f.
func (f Form) Scale(c int) Form {
	switch c {
	case 0:
		return Form{}
	case 1:
		return f
	}
	out := Form{Const: f.Const * c}
	if len(f.Terms) > 0 {
		out.Terms = make([]Term, len(f.Terms))
		for k, t := range f.Terms {
			out.Terms[k] = Term{Var: t.Var, Coef: t.Coef * c}
		}
	}
	return out
}

// AddConst returns f + c.
func (f Form) AddConst(c int) Form {
	return Form{Const: f.Const + c, Terms: f.Terms}
}

// find returns the index of name's term, or -1.
func (f Form) find(name string) int {
	for k, t := range f.Terms {
		if t.Var == name {
			return k
		}
	}
	return -1
}

// Subst returns f with the variable name bound to the value val.
func (f Form) Subst(name string, val int) Form {
	k := f.find(name)
	if k < 0 {
		return f
	}
	out := Form{Const: f.Const + f.Terms[k].Coef*val}
	if len(f.Terms) > 1 {
		out.Terms = make([]Term, 0, len(f.Terms)-1)
		out.Terms = append(append(out.Terms, f.Terms[:k]...), f.Terms[k+1:]...)
	}
	return out
}

// IsConst reports whether the form has no variable terms, returning
// the constant.
func (f Form) IsConst() (int, bool) {
	if len(f.Terms) == 0 {
		return f.Const, true
	}
	return 0, false
}

// CoefOf returns the coefficient of a variable.
func (f Form) CoefOf(name string) int {
	if k := f.find(name); k >= 0 {
		return f.Terms[k].Coef
	}
	return 0
}

// SingleVar reports whether f = coef·name + konst for exactly one
// variable.
func (f Form) SingleVar() (name string, coef, konst int, ok bool) {
	if len(f.Terms) != 1 {
		return "", 0, 0, false
	}
	return f.Terms[0].Var, f.Terms[0].Coef, f.Const, true
}

// Equal reports structural equality (same polynomial).
func (f Form) Equal(g Form) bool {
	d, ok := f.ConstDiff(g)
	return ok && d == 0
}

// ConstDiff returns f - g when the difference is a constant: the two
// forms have the same terms (both lists are sorted and hold no zero
// coefficient, so they must agree element by element).
func (f Form) ConstDiff(g Form) (int, bool) {
	if len(f.Terms) != len(g.Terms) {
		return 0, false
	}
	for k, t := range f.Terms {
		if g.Terms[k] != t {
			return 0, false
		}
	}
	return f.Const - g.Const, true
}

// Eval evaluates the form under an environment; missing variables
// report ok=false.
func (f Form) Eval(env map[string]int) (int, bool) {
	v := f.Const
	for _, t := range f.Terms {
		x, ok := env[t.Var]
		if !ok {
			return 0, false
		}
		v += t.Coef * x
	}
	return v, true
}

// String renders the form: its terms in name order, then the constant
// when it is non-zero or stands alone ("2*i-j+3", "-4").
func (f Form) String() string {
	var b strings.Builder
	for k, t := range f.Terms {
		switch {
		case t.Coef == -1:
			b.WriteByte('-')
		case k > 0 && t.Coef > 0:
			b.WriteByte('+')
		}
		if t.Coef != 1 && t.Coef != -1 {
			b.WriteString(strconv.Itoa(t.Coef))
			b.WriteByte('*')
		}
		b.WriteString(t.Var)
	}
	if f.Const != 0 || len(f.Terms) == 0 {
		if len(f.Terms) > 0 && f.Const > 0 {
			b.WriteByte('+')
		}
		b.WriteString(strconv.Itoa(f.Const))
	}
	return b.String()
}
