package core

import "gcao/internal/asd"

// ExpandFromDims is the reference SectionAt for the table tests: it
// expands the entry's fully symbolic section afresh, loop by loop from
// the innermost down to level, the way SectionAt did before the
// per-level tables (which indexed out of range below level 0; the table
// reads a negative level as 0, and so does this).
func (e *Entry) ExpandFromDims(a *Analysis, level int) asd.SymSection {
	dims := append([]asd.SymDim(nil), e.dims...)
	loops := e.Use().Stmt.Loops
	for li := len(loops) - 1; li >= max(level, 0); li-- {
		b, v := a.loopBound[loops[li].ID], loops[li].Var()
		if !b.ok {
			continue
		}
		for di, d := range dims {
			if d.Lo.CoefOf(v) != 0 || d.Hi.CoefOf(v) != 0 {
				dims[di] = expandDim(d, v, b.lo, b.hi, b.step)
			}
		}
	}
	return asd.SymSection{Dims: dims}
}
