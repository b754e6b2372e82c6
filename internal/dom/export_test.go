package dom

import (
	"fmt"

	"gcao/internal/cfg"
)

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

// slowDominators computes dominance by the classic dataflow fixpoint,
// dom[a][b] meaning a dominates b, over the blocks the entry reaches: a
// block's dominators are itself plus the intersection of its reachable
// predecessors' dominators. An unreachable predecessor lies on no path
// from the entry, so it constrains nothing; an unreachable block is
// dominated by nothing and dominates nothing, as New reports.
func slowDominators(g *cfg.Graph) [][]bool {
	n := len(g.Blocks)
	reach := make([]bool, n)
	reach[g.EntryBlock.ID] = true
	for work := []*cfg.Block{g.EntryBlock}; len(work) > 0; {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs {
			if !reach[s.ID] {
				reach[s.ID] = true
				work = append(work, s)
			}
		}
	}
	// Reachable blocks start dominated by every reachable block, the
	// entry by itself alone.
	dom := make([][]bool, n)
	for a := range dom {
		dom[a] = make([]bool, n)
		if reach[a] {
			copy(dom[a], reach)
			dom[a][g.EntryBlock.ID] = a == g.EntryBlock.ID
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			if b == g.EntryBlock || !reach[b.ID] {
				continue
			}
			for a := range n {
				want := true
				if a != b.ID {
					for _, p := range b.Preds {
						if reach[p.ID] && !dom[a][p.ID] {
							want = false
							break
						}
					}
				}
				if dom[a][b.ID] != want {
					dom[a][b.ID] = want
					changed = true
				}
			}
		}
	}
	return dom
}
