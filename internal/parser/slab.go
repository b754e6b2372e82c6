package parser

import (
	"gcao/internal/ast"
	"gcao/internal/heapsize"
)

// slab hands out values of one type from chunks, so that a routine's
// nodes of that type cost an allocation per chunk rather than one each
// (the per-function allocation idiom of the Go compiler's own SSA
// backend). Every list carve returns is capped at its length: an append
// to it — inline and scalarize build new nodes that way — copies the
// list instead of writing into the neighbour carved after it.
//
// A slab only ever starts a chunk when the current one cannot hold the
// request, so what a retained AST holds beyond its nodes is the last
// chunk's unused tail per type, plus, in a chunk a list did not fit,
// fewer unused slots than that list had elements.
type slab[T any] struct {
	free  []T   // the current chunk's unused tail
	size  int   // the length of the next chunk
	bytes int64 // the bytes of every chunk made
}

// new returns a zeroed value from the slab.
func (s *slab[T]) new() *T {
	if len(s.free) == 0 {
		s.grow(1)
	}
	x := &s.free[0]
	s.free = s.free[1:]
	return x
}

// carve returns a copy of xs in the slab, capped at its length; nil when
// xs is empty, as the appends that built lists before slabs left it.
func (s *slab[T]) carve(xs []T) []T {
	n := len(xs)
	if n == 0 {
		return nil
	}
	if len(s.free) < n {
		s.grow(n)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	copy(out, xs)
	return out
}

// grow starts a chunk of at least n values. The first is sized to hold
// the routine's values of the type; one that did not is short by a few,
// so the chunks after it are a quarter as long.
func (s *slab[T]) grow(n int) {
	s.free = make([]T, max(s.size, n))
	s.size = max(s.size/4, 4)
	s.bytes += heapsize.Slice(s.free)
}

// slabs are one parse's node and list slabs. A first chunk holds as
// many values as the source has bytes over the type's density, the mean
// of the Fig. 10(a) routines: an identifier per 8.6 bytes, a subscript
// per 12.1, a binary operator per 16.1, a literal per 18.0, an array
// reference per 27.3, an assignment per 82, a DO per 97. A chunk stays
// proportional to the source, whatever its mix.
type slabs struct {
	refs      slab[ast.Ref]
	idents    slab[ast.Ident]
	nums      slab[ast.NumLit]
	bins      slab[ast.BinExpr]
	unaries   slab[ast.UnaryExpr]
	calls     slab[ast.Call]
	assigns   slab[ast.AssignStmt]
	dos       slab[ast.DoStmt]
	ifs       slab[ast.IfStmt]
	callStmts slab[ast.CallStmt]
	subs      slab[ast.Sub]
	exprs     slab[ast.Expr]
	stmts     slab[ast.Stmt]
	items     slab[ast.DeclItem]
	bounds    slab[ast.Bound]
	names     slab[string]
}

// bytes returns the bytes of every chunk the slabs have made.
func (a *slabs) bytes() int64 {
	return a.refs.bytes + a.idents.bytes + a.nums.bytes + a.bins.bytes +
		a.unaries.bytes + a.calls.bytes + a.assigns.bytes + a.dos.bytes +
		a.ifs.bytes + a.callStmts.bytes + a.subs.bytes + a.exprs.bytes +
		a.stmts.bytes + a.items.bytes + a.bounds.bytes + a.names.bytes
}

func newSlabs(srcLen int) *slabs {
	per := func(bytes int) int { return srcLen/bytes + 4 }
	a := &slabs{}
	a.refs.size = per(27)
	a.idents.size = per(9)
	a.nums.size = per(18)
	a.bins.size = per(16)
	a.unaries.size = per(256)
	a.calls.size = per(256)
	a.assigns.size = per(80)
	a.dos.size = per(96)
	a.ifs.size = per(256)
	a.callStmts.size = per(512)
	a.subs.size = per(12)
	a.exprs.size = per(160)
	a.stmts.size = per(44)
	a.items.size = per(128)
	a.bounds.size = per(80)
	a.names.size = per(128)
	return a
}
