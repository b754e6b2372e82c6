package plan

// ClearRows removes the row-loop marks from a lowered program, so that
// a driver walks every loop on the closure tree: the element walk the
// row kernels are held against. For tests only — nothing else changes a
// Program after Lower.
func ClearRows(pr *Program) {
	var clear func(nodes []Node)
	clear = func(nodes []Node) {
		for _, n := range nodes {
			switch n := n.(type) {
			case *Loop:
				n.Row = nil
				clear(n.Body)
			case *If:
				clear(n.Then)
				clear(n.Else)
			}
		}
	}
	clear(pr.Body)
}
