package dep

import (
	"gcao/internal/ast"
	"gcao/internal/cfg"
)

// Directions computes the per-common-loop direction sets for a
// dependence from the definition statement (writing dref) to the use
// statement (reading uref), both references to the same array.
// feasible=false means the subscripts can never name the same element,
// so there is no dependence at all. The returned slice has one entry
// per common loop, outermost first, and is not nil for a feasible pair.
// The references' forms are derived afresh.
func (a *Analysis) Directions(dstmt *cfg.Stmt, dref *ast.Ref, ustmt *cfg.Stmt, uref *ast.Ref) (dirs []DirSet, feasible bool) {
	dfs, ufs := derive(dref, a.Unit.Params, varForms{}), derive(uref, a.Unit.Params, varForms{})
	dirs, feasible = a.directions(make([]DirSet, 0, len(cfg.CommonLoops(ustmt, dstmt))), dstmt, dfs, ustmt, ufs)
	if !feasible {
		return nil, false
	}
	return dirs, true
}
