package parser

import (
	"gcao/internal/ast"
	"gcao/internal/heapsize"
)

// slabs are one parse's node and list slabs. A first chunk holds as
// many values as the source has bytes over the type's density, the mean
// of the Fig. 10(a) routines: an identifier per 8.6 bytes, a subscript
// per 12.1, a binary operator per 16.1, a literal per 18.0, an array
// reference per 27.3, an assignment per 82, a DO per 97. A chunk stays
// proportional to the source, whatever its mix.
type slabs struct {
	refs      heapsize.Slab[ast.Ref]
	idents    heapsize.Slab[ast.Ident]
	nums      heapsize.Slab[ast.NumLit]
	bins      heapsize.Slab[ast.BinExpr]
	unaries   heapsize.Slab[ast.UnaryExpr]
	calls     heapsize.Slab[ast.Call]
	assigns   heapsize.Slab[ast.AssignStmt]
	dos       heapsize.Slab[ast.DoStmt]
	ifs       heapsize.Slab[ast.IfStmt]
	callStmts heapsize.Slab[ast.CallStmt]
	subs      heapsize.Slab[ast.Sub]
	exprs     heapsize.Slab[ast.Expr]
	stmts     heapsize.Slab[ast.Stmt]
	items     heapsize.Slab[ast.DeclItem]
	bounds    heapsize.Slab[ast.Bound]
	names     heapsize.Slab[string]
}

func newSlabs(srcLen int, count *int64) *slabs {
	per := func(bytes int) int { return srcLen/bytes + 4 }
	a := &slabs{}
	a.refs.Expect(per(27), count)
	a.idents.Expect(per(9), count)
	a.nums.Expect(per(18), count)
	a.bins.Expect(per(16), count)
	a.unaries.Expect(per(256), count)
	a.calls.Expect(per(256), count)
	a.assigns.Expect(per(80), count)
	a.dos.Expect(per(96), count)
	a.ifs.Expect(per(256), count)
	a.callStmts.Expect(per(512), count)
	a.subs.Expect(per(12), count)
	a.exprs.Expect(per(160), count)
	a.stmts.Expect(per(44), count)
	a.items.Expect(per(128), count)
	a.bounds.Expect(per(80), count)
	a.names.Expect(per(128), count)
	return a
}
