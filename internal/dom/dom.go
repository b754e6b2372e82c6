// Package dom computes dominators and the dominator tree of an
// augmented CFG using the iterative algorithm of Cooper, Harvey and
// Kennedy ("A Simple, Fast Dominance Algorithm"). The placement pass
// uses dominance three ways: Earliest(u) must dominate the use, the
// candidate set is the dominator-tree path from Latest(u) to
// Earliest(u), and redundancy elimination propagates along dominance.
package dom

import (
	"gcao/internal/cfg"
	"gcao/internal/heapsize"
)

// Tree is the dominator tree of a graph. Its tables are dense slices
// indexed by block ID, all carved from one array.
type Tree struct {
	g *cfg.Graph
	// idom[b.ID] is the immediate dominator block ID; entry maps to
	// itself, an unreachable block to -1.
	idom []int
	// The dominator-tree children of block id are
	// kids[start[id]:start[id+1]], in block ID order.
	start, kids []int
	// pre and post are DFS numbers over the dominator tree, giving
	// O(1) Dominates queries; both are 0 for an unreachable block.
	pre, post []int
}

// treeInts is the length of the one array New carves a tree of n blocks
// and its own scratch from.
func treeInts(n int) int { return 9*n + 2 }

// Bytes returns what the tree holds: itself and its one array.
func (t *Tree) Bytes() int64 {
	return heapsize.Of(t) + heapsize.Array[int](treeInts(len(t.idom)))
}

// New computes dominators for g. A block the entry does not reach
// (cfg.Build makes none) keeps idom -1: IDom returns nil for it, it has
// no dominator-tree parent or children, and Dominates reports false
// whenever it is either argument.
func New(g *cfg.Graph) *Tree {
	n := len(g.Blocks)
	entry := g.EntryBlock.ID
	// One array holds the tree — idom, pre, post, the children's offsets
	// and lists — and what building it needs: the reverse postorder, each
	// block's number in it, and a DFS stack of (block, next edge) frames.
	ints := make([]int, treeInts(n))
	carve := func(k int) []int {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	t := &Tree{g: g, idom: carve(n), start: carve(n + 2), kids: carve(n), pre: carve(n), post: carve(n)}
	rpoNum, order, stack := carve(n), carve(n)[:0], carve(2*n)
	for i := range t.idom {
		t.idom[i] = -1
	}

	// Reverse postorder. The DFS runs on an explicit stack: deeply
	// nested loop CFGs from large inlined units would otherwise
	// overflow the goroutine stack. Each frame remembers the next
	// successor edge to explore; a block is emitted when its frame
	// pops, reproducing the recursive postorder exactly. Until the walk
	// numbers them, rpoNum marks the blocks it has seen.
	stack[0], stack[1] = entry, 0
	sp := 2
	rpoNum[entry] = 1
	for sp > 0 {
		id, next := stack[sp-2], stack[sp-1]
		if succs := g.Blocks[id].Succs; next < len(succs) {
			stack[sp-1]++
			if s := succs[next].ID; rpoNum[s] == 0 {
				rpoNum[s] = 1
				stack[sp], stack[sp+1] = s, 0
				sp += 2
			}
			continue
		}
		order = append(order, id)
		sp -= 2
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for i, id := range order {
		rpoNum[id] = i
	}

	t.idom[entry] = entry
	changed := true
	for changed {
		changed = false
		for _, id := range order[1:] {
			newIdom := -1
			for _, p := range g.Blocks[id].Preds {
				if t.idom[p.ID] == -1 {
					continue // not yet processed
				}
				if newIdom == -1 {
					newIdom = p.ID
					continue
				}
				newIdom = t.intersect(p.ID, newIdom, rpoNum)
			}
			if newIdom != -1 && t.idom[id] != newIdom {
				t.idom[id] = newIdom
				changed = true
			}
		}
	}

	// Children lists, by counting: start[p+2] counts p's children, the
	// prefix sums make start[p+1] where p's list begins, and filling
	// advances it to where p+1's begins.
	for id, p := range t.idom {
		if id != entry && p != -1 {
			t.start[p+2]++
		}
	}
	for i := 2; i < len(t.start); i++ {
		t.start[i] += t.start[i-1]
	}
	for id, p := range t.idom {
		if id != entry && p != -1 {
			t.kids[t.start[p+1]] = id
			t.start[p+1]++
		}
	}

	// DFS numbering for O(1) dominance queries, on the same stack.
	clock := 1
	t.pre[entry] = clock
	stack[0], stack[1] = entry, 0
	sp = 2
	for sp > 0 {
		id, next := stack[sp-2], stack[sp-1]
		if kids := t.Children(id); next < len(kids) {
			stack[sp-1]++
			clock++
			t.pre[kids[next]] = clock
			stack[sp], stack[sp+1] = kids[next], 0
			sp += 2
			continue
		}
		clock++
		t.post[id] = clock
		sp -= 2
	}
	return t
}

func (t *Tree) intersect(b1, b2 int, rpoNum []int) int {
	for b1 != b2 {
		for rpoNum[b1] > rpoNum[b2] {
			b1 = t.idom[b1]
		}
		for rpoNum[b2] > rpoNum[b1] {
			b2 = t.idom[b2]
		}
	}
	return b1
}

// IDom returns the immediate dominator of b, or nil for the entry.
func (t *Tree) IDom(b *cfg.Block) *cfg.Block {
	if b == t.g.EntryBlock {
		return nil
	}
	id := t.idom[b.ID]
	if id < 0 {
		return nil
	}
	return t.g.Blocks[id]
}

// Dominates reports whether a dominates b (reflexively).
func (t *Tree) Dominates(a, b *cfg.Block) bool {
	if t.pre[a.ID] == 0 || t.pre[b.ID] == 0 {
		return false // unreachable
	}
	return t.pre[a.ID] <= t.pre[b.ID] && t.post[b.ID] <= t.post[a.ID]
}

// StrictlyDominates reports whether a dominates b and a != b.
func (t *Tree) StrictlyDominates(a, b *cfg.Block) bool {
	return a != b && t.Dominates(a, b)
}

// Children returns the IDs of the dominator-tree children of the block
// with the given ID, in ascending order. The list is the tree's own:
// callers must not write to it.
func (t *Tree) Children(id int) []int {
	lo, hi := t.start[id], t.start[id+1]
	return t.kids[lo:hi:hi]
}

// Frontiers is the dominance frontier of every block of a graph: the
// frontier of block id is blocks[start[id]:start[id+1]].
type Frontiers struct {
	start  []int
	blocks []*cfg.Block
}

// Of returns the dominance frontier of the block with the given ID. The
// list is the frontier's own: callers must not write to it.
func (f Frontiers) Of(id int) []*cfg.Block {
	lo, hi := f.start[id], f.start[id+1]
	return f.blocks[lo:hi:hi]
}

// Frontier computes the dominance frontier of every block (Cytron et
// al.); the SSA builder places φs with it. A first walk counts every
// list, so that the second fills them all into one array of blocks. The
// offsets and the walks' stamps share one array of ints.
func (t *Tree) Frontier() Frontiers {
	n := len(t.g.Blocks)
	ints := make([]int, 2*n+2)
	// start[id+2] counts id's frontier, the prefix sums make start[id+1]
	// where id's list begins, and filling advances it to where id+1's
	// begins, as New does the children.
	start, stamp := ints[:n+2], ints[n+2:]
	t.frontierEdges(stamp, 0, func(runner, b *cfg.Block) {
		start[runner.ID+2]++
	})
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	f := Frontiers{start: start[:n+1], blocks: make([]*cfg.Block, start[n+1])}
	t.frontierEdges(stamp, n, func(runner, b *cfg.Block) {
		f.blocks[start[runner.ID+1]] = b
		start[runner.ID+1]++
	})
	return f
}

// frontierEdges calls add once for every block b and every block runner
// with b in runner's dominance frontier: a join's predecessors walk up
// the dominator tree until they reach the join's immediate dominator.
// stamp[runner.ID] == base+b.ID+1 marks a runner already reported for
// b; each walk passes a base no earlier walk over stamp has used.
func (t *Tree) frontierEdges(stamp []int, base int, add func(runner, b *cfg.Block)) {
	for _, b := range t.g.Blocks {
		if len(b.Preds) < 2 {
			continue
		}
		idom, mark := t.IDom(b), base+b.ID+1
		for _, p := range b.Preds {
			for runner := p; runner != nil && runner != idom; runner = t.IDom(runner) {
				if stamp[runner.ID] != mark {
					stamp[runner.ID] = mark
					add(runner, b)
				}
			}
		}
	}
}
