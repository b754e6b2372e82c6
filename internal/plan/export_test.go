package plan

import "slices"

// ClearRows removes the row-loop and box marks from a lowered program,
// so that a driver walks every loop on the closure tree: the element
// walk the kernels are held against. ClearChains removes only the marks
// of the chains, so that a driver runs every row loop a row at a time.
// For tests only — nothing else changes a Program after Lower.
func ClearRows(pr *Program)   { clearMarks(pr.Body, true) }
func ClearChains(pr *Program) { clearMarks(pr.Body, false) }

func clearMarks(nodes []Node, rows bool) {
	for _, n := range nodes {
		switch n := n.(type) {
		case *Loop:
			if rows {
				n.Row = nil
			}
			if rows || n.Box != n {
				n.Box = nil
			}
			clearMarks(n.Body, rows)
		case *If:
			clearMarks(n.Then, rows)
			clearMarks(n.Else, rows)
		}
	}
}

// BatchRows is how many rows of n elements RunBox proves and executes
// together.
func BatchRows(n int) int { return batchOf(n) }

// BoxShape returns the rows and the row length of the box lp heads for
// the frame's processor, under the ranges the nest's Enter left.
func (lp *Loop) BoxShape(fr *Frame) (rows, n int) {
	rows = 1
	for l := lp.Box; l != lp; {
		l = l.outer
		r := fr.ranges[l.Src.ID].mine
		rows *= r.Hi - r.Lo + 1
	}
	r := fr.ranges[lp.Box.Src.ID].mine
	return rows, r.Hi - r.Lo + 1
}

// Verified reports whether Enter would return at once under fr: the
// frame's last entry of the nest that verified was made by the same
// processor with the same values in the slots the nest reads.
func (n *Nest) Verified(fr *Frame) bool {
	key := fr.memo[n.memo : n.memo+1+len(n.slots)]
	return key[0] == fr.P+1 && fr.Unchanged(n.slots, slices.Clone(key[1:]))
}
