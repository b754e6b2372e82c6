// Package dom computes dominators and the dominator tree of an
// augmented CFG using the iterative algorithm of Cooper, Harvey and
// Kennedy ("A Simple, Fast Dominance Algorithm"). The placement pass
// uses dominance three ways: Earliest(u) must dominate the use, the
// candidate set is the dominator-tree path from Latest(u) to
// Earliest(u), and redundancy elimination propagates along dominance.
package dom

import (
	"fmt"

	"gcao/internal/cfg"
)

// Tree is the dominator tree of a graph.
type Tree struct {
	g *cfg.Graph
	// idom[b.ID] is the immediate dominator block ID; entry maps to
	// itself.
	idom []int
	// children[b.ID] lists dominator-tree children.
	children [][]int
	// pre and post are DFS numbers over the dominator tree, giving
	// O(1) Dominates queries.
	pre, post []int
}

// New computes dominators for g. Unreachable blocks (there are none in
// graphs built by cfg.Build) would be given the entry as idom.
func New(g *cfg.Graph) *Tree {
	t := &Tree{g: g}
	n := len(g.Blocks)
	t.idom = make([]int, n)
	for i := range t.idom {
		t.idom[i] = -1
	}

	// Reverse postorder. The DFS runs on an explicit stack: deeply
	// nested loop CFGs from large inlined units would otherwise
	// overflow the goroutine stack. Each frame remembers the next
	// successor edge to explore; a block is emitted when its frame
	// pops, reproducing the recursive postorder exactly.
	seen := make([]bool, n)
	order := make([]*cfg.Block, 0, n)
	type dfsFrame struct {
		b    *cfg.Block
		next int
	}
	stack := []dfsFrame{{b: g.EntryBlock}}
	seen[g.EntryBlock.ID] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.b.Succs) {
			s := f.b.Succs[f.next]
			f.next++
			if !seen[s.ID] {
				seen[s.ID] = true
				stack = append(stack, dfsFrame{b: s})
			}
			continue
		}
		order = append(order, f.b)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}

	rpoNum := make([]int, n)
	for i, b := range order {
		rpoNum[b.ID] = i
	}

	t.idom[g.EntryBlock.ID] = g.EntryBlock.ID
	changed := true
	for changed {
		changed = false
		for _, b := range order {
			if b == g.EntryBlock {
				continue
			}
			newIdom := -1
			for _, p := range b.Preds {
				if t.idom[p.ID] == -1 {
					continue // not yet processed
				}
				if newIdom == -1 {
					newIdom = p.ID
					continue
				}
				newIdom = t.intersect(p.ID, newIdom, rpoNum)
			}
			if newIdom != -1 && t.idom[b.ID] != newIdom {
				t.idom[b.ID] = newIdom
				changed = true
			}
		}
	}

	// Children lists and DFS numbering for O(1) dominance queries.
	t.children = make([][]int, n)
	for _, b := range g.Blocks {
		if b == g.EntryBlock || t.idom[b.ID] == -1 {
			continue
		}
		p := t.idom[b.ID]
		t.children[p] = append(t.children[p], b.ID)
	}
	t.pre = make([]int, n)
	t.post = make([]int, n)
	clock := 0
	type numFrame struct {
		id   int
		next int
	}
	num := []numFrame{{id: g.EntryBlock.ID}}
	clock++
	t.pre[g.EntryBlock.ID] = clock
	for len(num) > 0 {
		f := &num[len(num)-1]
		if f.next < len(t.children[f.id]) {
			c := t.children[f.id][f.next]
			f.next++
			clock++
			t.pre[c] = clock
			num = append(num, numFrame{id: c})
			continue
		}
		clock++
		t.post[f.id] = clock
		num = num[:len(num)-1]
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
// with the given ID. The list is the tree's own: callers must not write
// to it.
func (t *Tree) Children(id int) []int { return t.children[id] }

// Frontier computes the dominance frontier of every block (Cytron et
// al.), indexed by block ID; the SSA builder places φs with it. A first
// walk sizes every list, so that the second fills them all from one
// backing array.
func (t *Tree) Frontier() [][]*cfg.Block {
	n := len(t.g.Blocks)
	ints := make([]int, 2*n)
	size, stamp := ints[:n], ints[n:]
	total := 0
	t.frontierEdges(stamp, 0, func(runner, b *cfg.Block) {
		size[runner.ID]++
		total++
	})
	df := make([][]*cfg.Block, n)
	all := make([]*cfg.Block, total)
	for id, k := range size {
		df[id], all = all[:0:k], all[k:]
	}
	t.frontierEdges(stamp, n, func(runner, b *cfg.Block) {
		df[runner.ID] = append(df[runner.ID], b)
	})
	return df
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

// Verify checks the dominator tree against a reference O(n^2)
// computation; used by property tests.
func (t *Tree) Verify() error {
	ref := slowDominators(t.g)
	for _, a := range t.g.Blocks {
		for _, b := range t.g.Blocks {
			want := ref[a.ID][b.ID]
			got := t.Dominates(a, b)
			if want != got {
				return fmt.Errorf("dom: Dominates(B%d, B%d) = %v, reference says %v", a.ID, b.ID, got, want)
			}
		}
	}
	return nil
}

// slowDominators computes dominance by the classic dataflow fixpoint.
func slowDominators(g *cfg.Graph) [][]bool {
	n := len(g.Blocks)
	dom := make([][]bool, n) // dom[b][a]: a is in Dom(b)? We store dom[a][b] = a dominates b.
	in := make([]map[int]bool, n)
	all := map[int]bool{}
	for i := 0; i < n; i++ {
		all[i] = true
	}
	for i := 0; i < n; i++ {
		if i == g.EntryBlock.ID {
			in[i] = map[int]bool{i: true}
		} else {
			m := map[int]bool{}
			for k := range all {
				m[k] = true
			}
			in[i] = m
		}
	}
	changed := true
	for changed {
		changed = false
		for _, b := range g.Blocks {
			if b == g.EntryBlock {
				continue
			}
			var m map[int]bool
			for _, p := range b.Preds {
				if m == nil {
					m = map[int]bool{}
					for k := range in[p.ID] {
						m[k] = true
					}
				} else {
					for k := range m {
						if !in[p.ID][k] {
							delete(m, k)
						}
					}
				}
			}
			if m == nil {
				m = map[int]bool{}
			}
			m[b.ID] = true
			if len(m) != len(in[b.ID]) {
				in[b.ID] = m
				changed = true
				continue
			}
			for k := range m {
				if !in[b.ID][k] {
					in[b.ID] = m
					changed = true
					break
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		dom[i] = make([]bool, n)
	}
	for b := 0; b < n; b++ {
		for a := range in[b] {
			dom[a][b] = true
		}
	}
	// Unreachable blocks: nothing dominates them except per init; the
	// fast algorithm reports false, so clear rows/cols for blocks with
	// no path from entry.
	reach := make([]bool, n)
	work := []*cfg.Block{g.EntryBlock}
	reach[g.EntryBlock.ID] = true
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs {
			if !reach[s.ID] {
				reach[s.ID] = true
				work = append(work, s)
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if !reach[a] || !reach[b] {
				dom[a][b] = false
			}
		}
	}
	return dom
}
