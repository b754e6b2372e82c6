// Package plan precomputes the execution recipe shared by every
// backend that runs a placed program: the BSP simulator (package spmd)
// and the native goroutine backend (package native) execute the same
// communication groups at the same positions and resolve the same
// array references. Building that index once here keeps the backends'
// group and control-flow handling logically identical — the bit-for-bit
// equivalence argument between them starts with "both executed the
// same Plan".
//
// Lower turns a Plan into a Program: the slot-resolved, structured form
// of the placed program that a backend executes without touching the
// AST, with per-processor loop bounds for owner-computes nests (see
// program.go, lower.go, localize.go). The native backend runs it; the
// simulator still walks the AST against the Plan.
//
// A Plan is immutable after New, a Program after Lower; both are safe
// for concurrent readers.
package plan

import (
	"gcao/internal/asd"
	"gcao/internal/ast"
	"gcao/internal/cfg"
	"gcao/internal/core"
	"gcao/internal/runtime"
	"gcao/internal/section"
)

// StmtInfo is the precomputed execution recipe of one statement.
type StmtInfo struct {
	// Flops counts the statement's floating-point operations (see
	// CountFlops).
	Flops int
	// LHS is the resolved LHS array view, nil for scalar targets.
	LHS *runtime.ArrayMem
	// Sync marks statements that need cross-processor agreement before
	// the store: a replicated-array store (single shared row) or a SUM
	// over a distributed array (reads owner rows across processors).
	Sync bool
	// HasSum marks statements whose RHS contains any SUM, so
	// per-statement reduction memos are reset before evaluation.
	HasSum bool
}

// Plan is the immutable per-run precomputation: communication groups
// indexed by block and statement position (instead of a map keyed by
// core.Position), per-statement recipes, resolved array views per AST
// reference, and the rendezvous requirements of branch conditions.
type Plan struct {
	A   *core.Analysis
	Res *core.Result
	// Comm[b.ID][k+1] lists the groups placed after statement k of
	// block b (index 0 is the block-top position After=-1), in
	// Res.Groups order.
	Comm [][][]*core.Group
	Info map[*cfg.Stmt]*StmtInfo
	// RefArr resolves array references to their memory views; scalar
	// references are absent.
	RefArr map[*ast.Ref]*runtime.ArrayMem
	// CondSync[b.ID] marks branch conditions that read distributed
	// data and therefore need cross-processor agreement on the taken
	// edge.
	CondSync []bool
	LoopOf   []*cfg.Loop // by preheader block ID
	// Tree is the binomial collective schedule for the run's processor
	// count: broadcasts, gathers, reductions and barriers follow its
	// parent/child edges for a log-P critical path.
	Tree *Tree
	// Bound maps each placed group to a conservative element-count
	// bound of its concretized payload (per processor pair), so backend
	// buffer capacities are decided once at setup, not per transfer.
	// The bound uses the symbolic section's constant element count when
	// it has one and degrades to the full declared array size otherwise.
	Bound map[*core.Group]int
	// symSec caches each placed entry's expanded symbolic section at
	// its group's level (see New); ConcreteEntrySection reads it.
	symSec map[*core.Entry]asd.SymSection
	mem    *runtime.Memory
}

// New builds the plan for one placement over one memory image.
func New(res *core.Result, mem *runtime.Memory) *Plan {
	a := res.Analysis
	pl := &Plan{A: a, Res: res, mem: mem}
	n := len(a.G.Blocks)
	pl.Comm = make([][][]*core.Group, n)
	for _, b := range a.G.Blocks {
		pl.Comm[b.ID] = make([][]*core.Group, len(b.Stmts)+1)
	}
	for _, g := range res.Groups {
		b := g.Pos.Block
		pl.Comm[b.ID][g.Pos.After+1] = append(pl.Comm[b.ID][g.Pos.After+1], g)
	}
	pl.Info = make(map[*cfg.Stmt]*StmtInfo, len(a.G.Stmts))
	pl.RefArr = map[*ast.Ref]*runtime.ArrayMem{}
	resolve := func(e ast.Expr) {
		WalkRefs(e, func(r *ast.Ref) {
			if a.Unit.Arrays[r.Name] != nil {
				pl.RefArr[r] = mem.View(r.Name)
			}
		})
	}
	for _, st := range a.G.Stmts {
		si := &StmtInfo{Flops: CountFlops(st.Assign.RHS)}
		if arr := a.Unit.Arrays[st.Assign.LHS.Name]; arr != nil {
			si.LHS = mem.View(st.Assign.LHS.Name)
		}
		si.HasSum = ExprHasSum(st.Assign.RHS)
		si.Sync = (si.LHS != nil && si.LHS.Dist == nil) ||
			ExprHasDistributedSum(a, st.Assign.RHS)
		pl.Info[st] = si
		resolve(st.Assign.RHS)
	}
	pl.CondSync = make([]bool, n)
	pl.LoopOf = make([]*cfg.Loop, n)
	for _, b := range a.G.Blocks {
		if b.Branch != nil {
			pl.CondSync[b.ID] = ExprReadsDistributed(a, b.Branch.Cond)
			resolve(b.Branch.Cond)
		}
	}
	for _, l := range a.G.Loops {
		if l.PreHeader != nil {
			pl.LoopOf[l.PreHeader.ID] = l
		}
	}
	pl.Tree = BuildTree(mem.P)
	pl.Bound = make(map[*core.Group]int, len(res.Groups))
	pl.symSec = map[*core.Entry]asd.SymSection{}
	for _, g := range res.Groups {
		total := 0
		for _, e := range g.Entries {
			// Expanding the symbolic section (SectionAt) walks the
			// dependence forms and is by far the most allocation-heavy
			// step of entry concretization; it depends only on the
			// entry and its group's placement level, so it is done
			// exactly once here and the executors concretize from the
			// cache.
			sym := res.CommSection(e, g.Pos.Level())
			pl.symSec[e] = sym
			total += pl.entryBound(sym, a.Unit.Arrays[e.Array].Size())
		}
		pl.Bound[g] = total
	}
	return pl
}

// entryBound bounds one entry's concretized element count: the
// symbolic section's constant count when it has one (point dimensions
// count 1 even while symbolic), else the full declared array size —
// sections are clipped to the array bounds, so the fallback is sound.
func (pl *Plan) entryBound(sym asd.SymSection, arraySize int) int {
	if n, ok := sym.NumElems(); ok {
		return n
	}
	return arraySize
}

// Tree is a binomial collective tree over processors 0..Procs-1,
// rooted at processor 0: gathers ascend it, broadcasts and barrier
// releases descend it, giving every collective a ceil(log2 P) critical
// path instead of the O(P) star through the root. The shape is the
// classic binomial construction — the parent of p clears p's lowest
// set bit, the children of p are p+1, p+2, p+4, ... up to the next
// power of two (clipped to Procs) — which is defined for every P, not
// just powers of two.
//
// Gathered payloads concatenate in DFS pre-order: a node's own
// contribution followed by each child subtree's payload in child
// order. Order, Pos and SubSize let the root carve a received child
// buffer back into per-processor streams without any per-message
// headers: child c's buffer holds the contributions of
// Order[Pos[c] : Pos[c]+SubSize[c]], in that order.
type Tree struct {
	Procs    int
	Parent   []int   // Parent[p]; -1 for the root
	Children [][]int // in ascending processor order
	Order    []int   // DFS pre-order from the root
	Pos      []int   // Pos[p] = index of p in Order
	SubSize  []int   // SubSize[p] = size of p's subtree
}

// BuildTree constructs the binomial tree for procs processors.
func BuildTree(procs int) *Tree {
	t := &Tree{
		Procs:    procs,
		Parent:   make([]int, procs),
		Children: make([][]int, procs),
		Order:    make([]int, 0, procs),
		Pos:      make([]int, procs),
		SubSize:  make([]int, procs),
	}
	for p := 0; p < procs; p++ {
		if p == 0 {
			t.Parent[p] = -1
		} else {
			t.Parent[p] = p &^ (p & -p) // clear the lowest set bit
		}
		// Children are p + 2^k for 2^k below p's lowest set bit (every
		// power of two for the root), clipped to the processor count.
		lim := p & -p
		if p == 0 {
			lim = procs
		}
		for step := 1; step < lim && p+step < procs; step <<= 1 {
			t.Children[p] = append(t.Children[p], p+step)
		}
	}
	// DFS pre-order and subtree sizes, iteratively (procs can be large).
	type visit struct{ p, child int }
	stack := make([]visit, 0, 64)
	stack = append(stack, visit{0, 0})
	t.Pos[0] = 0
	t.Order = append(t.Order, 0)
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.child < len(t.Children[top.p]) {
			c := t.Children[top.p][top.child]
			top.child++
			t.Pos[c] = len(t.Order)
			t.Order = append(t.Order, c)
			stack = append(stack, visit{c, 0})
			continue
		}
		t.SubSize[top.p] = len(t.Order) - t.Pos[top.p]
		stack = stack[:len(stack)-1]
	}
	return t
}

// Subtree returns the processors of p's subtree in DFS pre-order — the
// concatenation order of p's gathered payload.
func (t *Tree) Subtree(p int) []int {
	return t.Order[t.Pos[p] : t.Pos[p]+t.SubSize[p]]
}

// Depth returns the length of the longest root-to-leaf edge path — the
// collective critical path in hops.
func (t *Tree) Depth() int {
	depth := make([]int, t.Procs)
	max := 0
	// Order is pre-order, so parents appear before children.
	for _, p := range t.Order {
		if t.Parent[p] >= 0 {
			depth[p] = depth[t.Parent[p]] + 1
			if depth[p] > max {
				max = depth[p]
			}
		}
	}
	return max
}

// WalkRefs visits every array/scalar reference of an expression,
// including references nested in subscript and section bounds.
func WalkRefs(e ast.Expr, f func(*ast.Ref)) {
	switch e := e.(type) {
	case *ast.UnaryExpr:
		WalkRefs(e.X, f)
	case *ast.BinExpr:
		WalkRefs(e.X, f)
		WalkRefs(e.Y, f)
	case *ast.Call:
		for _, a := range e.Args {
			WalkRefs(a, f)
		}
	case *ast.Ref:
		f(e)
		for _, sub := range e.Subs {
			for _, x := range []ast.Expr{sub.X, sub.Lo, sub.Hi, sub.Step} {
				if x != nil {
					WalkRefs(x, f)
				}
			}
		}
	}
}

// WalkCalls visits every intrinsic call of an expression in evaluation
// order (a call before its arguments).
func WalkCalls(e ast.Expr, f func(*ast.Call)) {
	switch e := e.(type) {
	case *ast.UnaryExpr:
		WalkCalls(e.X, f)
	case *ast.BinExpr:
		WalkCalls(e.X, f)
		WalkCalls(e.Y, f)
	case *ast.Call:
		f(e)
		for _, a := range e.Args {
			WalkCalls(a, f)
		}
	}
}

// ExprHasSum reports whether the expression contains any SUM call.
func ExprHasSum(e ast.Expr) bool {
	found := false
	WalkCalls(e, func(c *ast.Call) {
		if c.Func == "sum" {
			found = true
		}
	})
	return found
}

// ExprHasDistributedSum reports whether the expression sums a
// distributed array (the case that needs a cross-processor combine).
func ExprHasDistributedSum(a *core.Analysis, e ast.Expr) bool {
	found := false
	WalkCalls(e, func(c *ast.Call) {
		if c.Func != "sum" || len(c.Args) != 1 {
			return
		}
		if ref, ok := c.Args[0].(*ast.Ref); ok {
			if arr := a.Unit.Arrays[ref.Name]; arr != nil && arr.Dist != nil {
				found = true
			}
		}
	})
	return found
}

// ExprReadsDistributed reports whether the expression references any
// distributed array.
func ExprReadsDistributed(a *core.Analysis, e ast.Expr) bool {
	found := false
	WalkRefs(e, func(r *ast.Ref) {
		if arr := a.Unit.Arrays[r.Name]; arr != nil && arr.Dist != nil {
			found = true
		}
	})
	return found
}

// CountFlops counts the floating-point operations of an expression,
// excluding integer subscript arithmetic (which compiled code strength-
// reduces away).
func CountFlops(e ast.Expr) int {
	switch e := e.(type) {
	case *ast.BinExpr:
		return 1 + CountFlops(e.X) + CountFlops(e.Y)
	case *ast.UnaryExpr:
		return 1 + CountFlops(e.X)
	case *ast.Call:
		n := 1
		for _, a := range e.Args {
			n += CountFlops(a)
		}
		return n
	default:
		return 0 // literals, scalars, array refs (subscripts excluded)
	}
}

// ConcreteRefSection resolves a (possibly sectioned) reference to a
// concrete section under a loop environment.
func (pl *Plan) ConcreteRefSection(ref *ast.Ref, am *runtime.ArrayMem, ienv map[string]int) (sec section.Section, err error) {
	arr := am.Arr
	dims := make([]section.Dim, arr.Rank())
	if len(ref.Subs) == 0 {
		for i := range dims {
			dims[i] = section.Dim{Lo: arr.Lo[i], Hi: arr.Hi[i], Step: 1}
		}
		return section.Section{Dims: dims}, nil
	}
	for i, sub := range ref.Subs {
		if sub.Kind == ast.SubExpr {
			x, err := pl.A.Unit.EvalIntEnv(sub.X, ienv)
			if err != nil {
				return section.Section{}, err
			}
			dims[i] = section.Dim{Lo: x, Hi: x, Step: 1}
			continue
		}
		lo, hi, step := arr.Lo[i], arr.Hi[i], 1
		if sub.Lo != nil {
			if lo, err = pl.A.Unit.EvalIntEnv(sub.Lo, ienv); err != nil {
				return section.Section{}, err
			}
		}
		if sub.Hi != nil {
			if hi, err = pl.A.Unit.EvalIntEnv(sub.Hi, ienv); err != nil {
				return section.Section{}, err
			}
		}
		if sub.Step != nil {
			if step, err = pl.A.Unit.EvalIntEnv(sub.Step, ienv); err != nil {
				return section.Section{}, err
			}
		}
		dims[i] = section.Dim{Lo: lo, Hi: hi, Step: step}
	}
	return section.Section{Dims: dims}, nil
}

// ConcreteEntrySection concretizes one group entry's communicated
// section under a loop environment, clipped to the declared array
// bounds (vectorized subscript ranges like i-1 over i=2..n already
// stay inside, but defensive clipping keeps hulls in range).
func (pl *Plan) ConcreteEntrySection(e *core.Entry, pos core.Position, ienv map[string]int) (section.Section, bool) {
	// The symbolic section was expanded once at plan time (see New);
	// Concrete only reads the environment (lin.Form.Eval is pure), so
	// the caller's loop environment is passed through without the
	// per-call copy this hot path used to allocate.
	sym, ok := pl.symSec[e]
	if !ok {
		sym = pl.Res.CommSection(e, pos.Level())
	}
	sec, ok := sym.Concrete(ienv)
	if !ok {
		return section.Section{}, false
	}
	arr := pl.A.Unit.Arrays[e.Array]
	return sec.Clip(arr.Lo, arr.Hi), true
}
