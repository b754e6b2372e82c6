package lin

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
