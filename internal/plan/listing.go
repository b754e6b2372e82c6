package plan

import (
	"fmt"
	"sort"
	"strings"

	"gcao/internal/ast"
	"gcao/internal/core"
)

// LoweredPrefix starts every line of a Listing that says what only the
// lowered form knows. The lines without it are the paper's listing.
const LoweredPrefix = "!> "

// Listing renders the program as the annotated listing the paper's
// prototype emitted for hand compilation (Fig. 6: "Trace dump to listing
// file"): the scalarized statements interleaved with COMM pseudo-calls at
// their chosen positions, each naming the runtime operation, the mapping,
// the sections moved and the redundant references riding along. Printed
// from the tree the backends walk, it shows the operation sequence a run
// performs; under LoweredPrefix it adds what lowering decided: payload
// bounds, SUM collectives, synchronized conditions, owner-computes nests
// with their per-processor clamps and guards, row and box kernels.
func (pr *Program) Listing() string {
	a, res := pr.Plan.A, pr.Plan.Res
	ls := &lister{a: a}
	fmt.Fprintf(&ls.b, "! routine %s on %s, %s placement: %d communication operations\n",
		a.Unit.Routine.Name, a.Unit.Grid, res.Version, len(res.Groups))
	ls.nodes(pr.Body, 0)
	return ls.b.String()
}

type lister struct {
	b    strings.Builder
	a    *core.Analysis
	nest bool // inside a pure owner-computes nest
}

func (ls *lister) line(prefix string, depth int, format string, args ...any) {
	fmt.Fprintf(&ls.b, prefix+strings.Repeat("  ", depth)+format+"\n", args...)
}

func (ls *lister) nodes(nodes []Node, depth int) {
	for _, n := range nodes {
		switch n := n.(type) {
		case *Comm:
			ls.comm(n, depth)
		case *Stmt:
			ls.sums(n.Sums, n.Settle, depth)
			if ls.nest && n.Guard {
				ls.line(LoweredPrefix, depth, "guard: ownership of the %s element tested per iteration", n.LHS.Lay.Name)
			}
			ls.line("", depth, "%s = %s", ast.ExprString(n.Src.Assign.LHS), ast.ExprString(n.Src.Assign.RHS))
		case *If:
			ls.sums(n.Sums, nil, depth)
			if n.Sync {
				ls.line(LoweredPrefix, depth, "condition over distributed data: processor 0 evaluates, every processor takes its edge")
			}
			ls.line("", depth, "if (%s) then", ast.ExprString(n.Src.Branch.Cond))
			ls.nodes(n.Then, depth+1)
			if n.Else != nil {
				ls.line("", depth, "else")
				ls.nodes(n.Else, depth+1)
			}
			ls.line("", depth, "endif")
		case *Loop:
			ls.loop(n, depth)
		}
	}
}

func (ls *lister) loop(lp *Loop, depth int) {
	ls.comm(lp.Pre, depth)
	if lp.Nest != nil {
		ls.nest = true
		ls.line(LoweredPrefix, depth, "owner-computes nest of %d statements: subscript ranges verified on entry, validity settled on exit", len(lp.Nest.stmts))
	}
	if lp.Clamp != nil {
		ls.line(LoweredPrefix, depth, "clamp %s per processor: %v", lp.Src.Var(), lp.Clamp)
	}
	switch {
	case lp.Box == lp:
		ls.line(LoweredPrefix, depth, "row kernel: %d statements a row of %s at a time", len(lp.Row), lp.Src.Var())
	case lp.Box != nil:
		ls.line(LoweredPrefix, depth, "box kernel: the chain down to %s a batch of rows at a time", lp.Box.Src.Var())
	}
	do, step := lp.Src.Do, ""
	if do.Step != nil {
		step = ", " + ast.ExprString(do.Step)
	}
	ls.line("", depth, "do %s = %s, %s%s", lp.Src.Var(), ast.ExprString(do.Lo), ast.ExprString(do.Hi), step)
	ls.comm(lp.Head, depth+1) // once per iteration
	ls.nodes(lp.Body, depth+1)
	ls.line("", depth, "enddo")
	if lp.Nest != nil {
		ls.nest = false
	}
}

func (ls *lister) sums(sums []Sum, settle *CommOp, depth int) {
	where := "here"
	if settle != nil {
		where = fmt.Sprintf("at global-sum g%d", settle.Group.ID)
	}
	for i := range sums {
		ls.line(LoweredPrefix, depth, "collective: SUM %d over %s gathered to processor 0; the total descends %s", i, sums[i].Lay.Name, where)
	}
}

func (ls *lister) comm(c *Comm, depth int) {
	for i := 0; c != nil && i < len(c.Ops); i++ {
		op := &c.Ops[i]
		g := op.Group
		var parts []string
		for _, en := range g.Entries {
			parts = append(parts, fmt.Sprintf("%s%s", en.Array, en.SectionAt(ls.a, g.Pos.Level())))
		}
		sort.Strings(parts)
		text := fmt.Sprintf("COMM %s %s {%s}", OpName(g.Kind), g.Map, strings.Join(parts, ", "))
		text += "  ! site " + g.SiteID()
		if len(g.Attached) > 0 {
			var rs []string
			for _, r := range g.Attached {
				rs = append(rs, r.Array)
			}
			sort.Strings(rs)
			text += fmt.Sprintf("  ! subsumes redundant {%s}", strings.Join(rs, ", "))
		}
		ls.line("", depth, "%s", text)
		if g.Kind == core.KindReduce {
			var targets []string
			for _, st := range op.Settles {
				targets = append(targets, ast.ExprString(st.Src.Assign.LHS))
			}
			ls.line(LoweredPrefix, depth, "operands gathered at the SUM statements; settles {%s} here: totals descend, statements assign", strings.Join(targets, ", "))
		} else {
			ls.line(LoweredPrefix, depth, "%d of %d entries can move data", len(op.Entries), len(g.Entries))
		}
	}
}

// OpName is the listing vocabulary for a kind of communication group, the
// operation a COMM pseudo-call names. Backends count what they perform
// under the same names, so a native run reads against the listing.
func OpName(k core.CommKind) string {
	switch k {
	case core.KindShift:
		return "exchange"
	case core.KindReduce:
		return "global-sum"
	case core.KindBcast:
		return "broadcast"
	default:
		return "gather"
	}
}
