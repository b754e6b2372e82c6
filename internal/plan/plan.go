// Package plan holds the one executable form of a placed program and
// the only evaluator of it. Lower turns a placement into a Program: the
// slot-resolved, structured form in which every name is a frame slot,
// every array reference holds its array's layout — bounds, local boxes,
// strides, ownership tables: a function of (placement, P), never a
// memory image — every communication position and SUM collective is an
// explicit operation, and owner-computes nests carry per-processor loop bounds
// (see program.go, lower.go, localize.go). Storage is reached through the
// image a Frame is bound to, so one Program serves every engine of its
// placement, and its Listing is the Fig. 6 trace dump of the tree that
// runs (listing.go). Under that tree of nodes the statements of a nest
// carry a second, flat form — postfix row ops — which RunBox executes over
// the box of a perfect chain of loops, a batch of rows at a time (row.go);
// the tree stays the semantics and the fallback.
//
// Both backends — the BSP simulator (package spmd) and the native
// goroutine backend (package native) — are drivers over that Program.
// How a placed statement is evaluated (name resolution, subscript
// folding, bounds checks, floating-point operation order, SUM call
// sites, loop-exit values, the order of a loop's steps: Loop.Run) and
// which runs an exchange moves between which neighbours (Schedule) are
// decided here and nowhere else; a backend knows only what it adds: the
// simulator its rendezvous and ledger charges, the native backend its
// message fabric.
//
// A Plan and a Program are immutable once built; both are safe for
// concurrent readers.
package plan

import (
	"cmp"
	"slices"

	"gcao/internal/ast"
	"gcao/internal/core"
	"gcao/internal/heapsize"
	"gcao/internal/runtime"
)

// Plan is the immutable index of one placement over one array layout:
// what lowering reads and what the backends need beside the lowered form.
// It bounds no payload: a message's size is known only where a backend
// packs it, under the run's loop environment and validity, and the native
// fabric sizes its buffers there.
type Plan struct {
	A   *core.Analysis
	Res *core.Result
	// Layout is the geometry of the unit's arrays on the run's processor
	// count: every image a frame binds was made under it, or under its equal.
	Layout *runtime.Layout
	// Comm[b.ID][k+1] lists the groups placed after statement k of
	// block b (index 0 is the block-top position After=-1), in
	// Res.Groups order.
	Comm [][][]*core.Group
	// Tree is the binomial collective schedule for the run's processor
	// count: broadcasts, gathers, reductions and barriers follow its
	// parent/child edges for a log-P critical path.
	Tree *Tree
	// bytes counts the plan's own tables and its tree.
	bytes int64
}

// New builds the plan of a placement under the layout of a memory image.
func New(res *core.Result, mem *runtime.Memory) *Plan { return newPlan(res, mem.Layout) }

func newPlan(res *core.Result, layout *runtime.Layout) *Plan {
	a := res.Analysis
	pl := &Plan{A: a, Res: res, Layout: layout}
	pl.Comm = make([][][]*core.Group, len(a.G.Blocks))
	n := 0
	for _, b := range a.G.Blocks {
		n += len(b.Stmts) + 1
	}
	positions := make([][]*core.Group, n)
	for _, b := range a.G.Blocks {
		k := len(b.Stmts) + 1
		pl.Comm[b.ID], positions = positions[:k:k], positions[k:]
	}
	// One position's groups are a run of the groups sorted by position.
	groups := slices.Clone(res.Groups)
	slices.SortStableFunc(groups, func(x, y *core.Group) int {
		return cmp.Or(x.Pos.Block.ID-y.Pos.Block.ID, x.Pos.After-y.Pos.After)
	})
	for i := 0; i < len(groups); {
		pos, j := groups[i].Pos, i+1
		for j < len(groups) && groups[j].Pos == pos {
			j++
		}
		pl.Comm[pos.Block.ID][pos.After+1], i = groups[i:j:j], j
	}
	pl.Tree = buildTree(layout.P)
	t := pl.Tree
	pl.bytes = heapsize.Of(pl) + heapsize.Slice(pl.Comm) + heapsize.Array[[]*core.Group](n) + heapsize.Slice(groups) +
		heapsize.Of(t) + heapsize.Slice(t.Children) + heapsize.Array[int](treeInts(t.Procs))
	return pl
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

// treeInts is the length of the one slab of ints a tree over procs
// processors is carved from: four tables by processor and the children
// lists, which hold every processor but the root once.
func treeInts(procs int) int { return 4*procs + max(procs-1, 0) }

// buildTree constructs the binomial tree for procs processors, its int
// tables carved from one slab and its children lists from another.
func buildTree(procs int) *Tree {
	ints := make([]int, treeInts(procs))
	t := &Tree{
		Procs:    procs,
		Parent:   heapsize.Take(&ints, procs),
		Children: make([][]int, procs),
		Order:    heapsize.Take(&ints, procs)[:0],
		Pos:      heapsize.Take(&ints, procs),
		SubSize:  heapsize.Take(&ints, procs),
	}
	kids := ints[:0]
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
		k := len(kids)
		for step := 1; step < lim && p+step < procs; step <<= 1 {
			kids = append(kids, p+step)
		}
		if len(kids) > k {
			t.Children[p] = kids[k:len(kids):len(kids)]
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
