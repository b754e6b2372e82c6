package cfg

import (
	"strconv"
	"testing"

	"gcao/internal/parser"
)

func build(t *testing.T, src string) *Graph {
	t.Helper()
	r, err := parser.ParseRoutine(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g := Build(r.Body)
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	// The count Build sizes its backing arrays by is exact, and no edge
	// list outgrew the two slots carved for it.
	if nb, ns, nl, _ := size(r.Body, 0); len(g.Blocks) != nb+2 || len(g.Stmts) != ns || len(g.Loops) != nl {
		t.Fatalf("counted %d blocks, %d statements, %d loops; built %d, %d, %d", nb+2, ns, nl, len(g.Blocks), len(g.Stmts), len(g.Loops))
	}
	for _, blk := range g.Blocks {
		if cap(blk.Succs) != 2 || cap(blk.Preds) != 2 {
			t.Fatalf("%s: edge lists outgrew their slots", blk)
		}
	}
	// Every loop's Children are the loops naming it their parent, in
	// preorder, carved to their exact length.
	for _, l := range g.Loops {
		var want []*Loop
		for _, c := range g.Loops {
			if c.Parent == l {
				want = append(want, c)
			}
		}
		if len(l.Children) != len(want) || cap(l.Children) != len(want) {
			t.Fatalf("loop %d: %d children (cap %d), want %d", l.ID, len(l.Children), cap(l.Children), len(want))
		}
		for i := range want {
			if l.Children[i] != want[i] {
				t.Fatalf("loop %d: child %d is loop %d, want loop %d", l.ID, i, l.Children[i].ID, want[i].ID)
			}
		}
	}
	// An unlabelled statement is labelled by its source line.
	for _, st := range g.Stmts {
		if want := "L" + strconv.Itoa(st.Assign.Pos.Line); st.Label() != want {
			t.Fatalf("statement %d labelled %q, want %q", st.ID, st.Label(), want)
		}
	}
	return g
}

// TestNestedControlSizing builds consecutive and nested IFs and DOs,
// empty arms and bodies among them, through the sizing checks of build.
func TestNestedControlSizing(t *testing.T) {
	g := build(t, `
routine f(n)
real x
if (x > 0) then
if (x > 1) then
else
do i = 1, n
enddo
endif
endif
if (x > 2) then
x = 1
endif
do i = 1, n
x = 2
if (x > 3) then
do j = 1, n
x = 3
enddo
else
x = 4
endif
do j = 1, n
enddo
x = 5
enddo
end
`)
	if len(g.Loops) != 4 || g.Loops[2].Depth != 2 || len(g.Loops[1].Children) != 2 {
		t.Fatalf("loops %d, depth %d", len(g.Loops), g.Loops[2].Depth)
	}
	last := g.Stmts[len(g.Stmts)-1]
	if len(last.Loops) != 1 || last.Loops[0] != g.Loops[1] {
		t.Errorf("x = 5 in loops %v", last.Loops)
	}
}

func TestStraightLine(t *testing.T) {
	g := build(t, `
routine f()
real x, y
x = 1
y = 2
end
`)
	if len(g.Stmts) != 2 {
		t.Fatalf("stmts = %d", len(g.Stmts))
	}
	if g.Stmts[0].Block != g.EntryBlock || g.Stmts[1].Index != 1 {
		t.Error("straight-line statements should share the entry block")
	}
	if len(g.Loops) != 0 {
		t.Error("no loops expected")
	}
}

func TestLoopAugmentation(t *testing.T) {
	g := build(t, `
routine f()
real x
do i = 1, 4
x = 1
enddo
x = 2
end
`)
	if len(g.Loops) != 1 {
		t.Fatalf("loops = %d", len(g.Loops))
	}
	l := g.Loops[0]
	if l.PreHeader.Kind != PreHeader || l.Header.Kind != Header || l.PostExit.Kind != PostExit {
		t.Fatal("augmented node kinds wrong")
	}
	// Preheader -> header and the zero-trip edge preheader -> postexit.
	if len(l.PreHeader.Succs) != 2 || l.PreHeader.Succs[0] != l.Header || l.PreHeader.Succs[1] != l.PostExit {
		t.Errorf("preheader succs = %v", l.PreHeader.Succs)
	}
	// Header branches to the body and the postexit.
	if len(l.Header.Succs) != 2 || l.Header.Succs[1] != l.PostExit {
		t.Errorf("header succs = %v", l.Header.Succs)
	}
	// Backedge: some block inside the loop returns to the header.
	foundBack := false
	for _, p := range l.Header.Preds {
		if p != l.PreHeader {
			foundBack = true
		}
	}
	if !foundBack {
		t.Error("missing backedge to header")
	}
	// The statement after the loop lands in the postexit block.
	last := g.Stmts[len(g.Stmts)-1]
	if last.Block != l.PostExit {
		t.Errorf("trailing statement in %v, want postexit", last.Block)
	}
	// Nesting levels: loop depth 1; header belongs to the loop.
	if l.Depth != 1 || l.Header.NL() != 1 || l.PreHeader.NL() != 0 {
		t.Errorf("depths: loop=%d header=%d pre=%d", l.Depth, l.Header.NL(), l.PreHeader.NL())
	}
}

func TestNestedLoops(t *testing.T) {
	g := build(t, `
routine f()
real x
do i = 1, 2
do j = 1, 3
x = 1
enddo
enddo
end
`)
	if len(g.Loops) != 2 {
		t.Fatalf("loops = %d", len(g.Loops))
	}
	outer, inner := g.Loops[0], g.Loops[1]
	if inner.Parent != outer || outer.Depth != 1 || inner.Depth != 2 {
		t.Errorf("nesting wrong: %+v %+v", outer, inner)
	}
	st := g.Stmts[0]
	if st.NL() != 2 || st.Loops[0] != outer || st.Loops[1] != inner {
		t.Errorf("statement loops = %v", st.Loops)
	}
	// Inner loop's preheader belongs to the outer loop.
	if inner.PreHeader.Loop != outer {
		t.Error("inner preheader should belong to the outer loop")
	}
}

func TestIfBranch(t *testing.T) {
	g := build(t, `
routine f()
real x
if (x > 0) then
x = 1
else
x = 2
endif
x = 3
end
`)
	entry := g.EntryBlock
	if entry.Branch == nil {
		t.Fatal("entry block should carry the branch condition")
	}
	if len(entry.Succs) != 2 {
		t.Fatalf("branch succs = %d", len(entry.Succs))
	}
	thenB, elseB := entry.Succs[0], entry.Succs[1]
	if len(thenB.Stmts) != 1 || len(elseB.Stmts) != 1 {
		t.Error("branch blocks should hold one statement each")
	}
	// Both branches join.
	if thenB.Succs[0] != elseB.Succs[0] || thenB.Succs[0].Kind != Join {
		t.Error("branches should meet at a join block")
	}
}

func TestIfWithoutElse(t *testing.T) {
	g := build(t, `
routine f()
real x
if (x > 0) then
x = 1
endif
end
`)
	entry := g.EntryBlock
	if len(entry.Succs) != 2 {
		t.Fatalf("branch succs = %d", len(entry.Succs))
	}
	join := entry.Succs[1]
	if join.Kind != Join {
		t.Errorf("fallthrough should reach the join, got %v", join)
	}
}

func TestCommonLoopsAndCNL(t *testing.T) {
	g := build(t, `
routine f()
real x, y
do i = 1, 2
do j = 1, 2
x = 1
enddo
do k = 1, 2
y = 2
enddo
enddo
end
`)
	var sx, sy *Stmt
	for _, s := range g.Stmts {
		if s.Assign.LHS.Name == "x" {
			sx = s
		}
		if s.Assign.LHS.Name == "y" {
			sy = s
		}
	}
	// The common nesting level CNL(u, v) is the number of common loops.
	if n := len(CommonLoops(sx, sy)); n != 1 {
		t.Errorf("CNL across sibling nests = %d, want 1", n)
	}
	common := CommonLoops(sx, sy)
	if len(common) != 1 || common[0].Var() != "i" {
		t.Errorf("common loops = %v", common)
	}
	if n := len(CommonLoops(sx, sx)); n != 2 {
		t.Errorf("CNL with self = %d", n)
	}
}

func TestZeroTripEdgeDataflow(t *testing.T) {
	// Every postexit must be reachable without entering the loop (the
	// zero-trip edge of Fig. 7).
	g := build(t, `
routine f()
real x
do i = 1, 0
x = 1
enddo
end
`)
	l := g.Loops[0]
	found := false
	for _, p := range l.PostExit.Preds {
		if p == l.PreHeader {
			found = true
		}
	}
	if !found {
		t.Error("zero-trip edge missing")
	}
}
