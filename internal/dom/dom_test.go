package dom

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gcao/internal/cfg"
	"gcao/internal/parser"
)

func buildGraph(t *testing.T, src string) *cfg.Graph {
	t.Helper()
	r, err := parser.ParseRoutine(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return cfg.Build(r.Body)
}

func TestAgainstReference(t *testing.T) {
	srcs := []string{
		`
routine a()
real x
x = 1
end
`, `
routine b()
real x
do i = 1, 3
do j = 1, 3
x = 1
enddo
enddo
end
`, `
routine c()
real x
if (x > 0) then
do i = 1, 2
x = 1
enddo
else
x = 2
endif
do k = 1, 2
if (x > 1) then
x = 3
endif
enddo
end
`,
	}
	for i, src := range srcs {
		g := buildGraph(t, src)
		tr := New(g)
		if err := tr.Verify(); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

// randomProgram builds a random structured routine for property
// testing the dominator computation.
func randomProgram(rng *rand.Rand, depth int) string {
	var b strings.Builder
	b.WriteString("routine r()\nreal x\n")
	var gen func(d int)
	stmts := 0
	gen = func(d int) {
		n := 1 + rng.Intn(3)
		for i := 0; i < n && stmts < 30; i++ {
			switch {
			case d < depth && rng.Intn(3) == 0:
				fmt.Fprintf(&b, "do v%d = 1, 3\n", stmts)
				stmts++
				gen(d + 1)
				b.WriteString("enddo\n")
			case d < depth && rng.Intn(3) == 0:
				b.WriteString("if (x > 0) then\n")
				stmts++
				gen(d + 1)
				if rng.Intn(2) == 0 {
					b.WriteString("else\n")
					gen(d + 1)
				}
				b.WriteString("endif\n")
			default:
				b.WriteString("x = 1\n")
				stmts++
			}
		}
	}
	gen(0)
	b.WriteString("end\n")
	return b.String()
}

func TestRandomStructuredPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		src := randomProgram(rng, 3)
		g := buildGraph(t, src)
		tr := New(g)
		if err := tr.Verify(); err != nil {
			t.Fatalf("trial %d (%s): %v", trial, src, err)
		}
	}
}

func TestTreeProperties(t *testing.T) {
	g := buildGraph(t, `
routine f()
real x
do i = 1, 3
if (x > 0) then
x = 1
endif
enddo
x = 2
end
`)
	tr := New(g)
	// Entry dominates everything.
	for _, b := range g.Blocks {
		if !tr.Dominates(g.EntryBlock, b) {
			t.Errorf("entry should dominate %v", b)
		}
	}
	// IDom is a strict dominator and dominance is transitive through it.
	for _, b := range g.Blocks {
		id := tr.IDom(b)
		if b == g.EntryBlock {
			if id != nil {
				t.Error("entry has no idom")
			}
			continue
		}
		if id == nil || !tr.StrictlyDominates(id, b) {
			t.Errorf("idom(%v) = %v not a strict dominator", b, id)
		}
	}
	// Children lists are consistent with IDom.
	for _, b := range g.Blocks {
		for _, id := range tr.Children(b.ID) {
			if c := g.Blocks[id]; tr.IDom(c) != b {
				t.Errorf("child %v of %v has idom %v", c, b, tr.IDom(c))
			}
		}
	}
	// A loop preheader dominates its header and postexit.
	l := g.Loops[0]
	if !tr.StrictlyDominates(l.PreHeader, l.Header) || !tr.StrictlyDominates(l.PreHeader, l.PostExit) {
		t.Error("preheader must dominate header and postexit")
	}
	// The header does NOT dominate the postexit (zero-trip bypass).
	if tr.Dominates(l.Header, l.PostExit) {
		t.Error("zero-trip edge should break header's dominance of postexit")
	}
}

func TestFrontier(t *testing.T) {
	g := buildGraph(t, `
routine f()
real x
if (x > 0) then
x = 1
else
x = 2
endif
end
`)
	tr := New(g)
	df := tr.Frontier()
	// Both branch blocks have the join in their frontier.
	entry := g.EntryBlock
	thenB, elseB := entry.Succs[0], entry.Succs[1]
	for _, b := range []*cfg.Block{thenB, elseB} {
		found := false
		for _, f := range df.Of(b.ID) {
			if f.Kind == cfg.Join {
				found = true
			}
		}
		if !found {
			t.Errorf("join missing from frontier of %v: %v", b, df.Of(b.ID))
		}
	}
	// The join is not in its own frontier here (single-level if).
	for _, f := range df.Of(entry.ID) {
		if f == entry {
			t.Error("entry in its own frontier")
		}
	}
}

// TestFrontierListsEachJoinOnce: a join with three predecessors, two of
// which share a dominator below the join's own, is in that dominator's
// frontier once (cfg.Build never makes such a join; Frontier takes any
// graph).
func TestFrontierListsEachJoinOnce(t *testing.T) {
	g := &cfg.Graph{}
	blk := func() *cfg.Block {
		b := &cfg.Block{ID: len(g.Blocks)}
		g.Blocks = append(g.Blocks, b)
		return b
	}
	edge := func(from, to *cfg.Block) {
		from.Succs = append(from.Succs, to)
		to.Preds = append(to.Preds, from)
	}
	entry, a, c, b1, b2, join := blk(), blk(), blk(), blk(), blk(), blk()
	g.EntryBlock = entry
	edge(entry, a)
	edge(entry, c)
	edge(a, b1)
	edge(a, b2)
	edge(b1, join)
	edge(b2, join)
	edge(c, join)
	tr := New(g)
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	df := tr.Frontier()
	for _, b := range []*cfg.Block{a, b1, b2, c} {
		if len(df.Of(b.ID)) != 1 || df.Of(b.ID)[0] != join {
			t.Errorf("frontier of B%d = %v, want [B%d] once", b.ID, df.Of(b.ID), join.ID)
		}
	}
	if len(df.Of(entry.ID)) != 0 || len(df.Of(join.ID)) != 0 {
		t.Errorf("frontiers of entry %v and join %v, want both empty", df.Of(entry.ID), df.Of(join.ID))
	}
}

func TestLoopFrontierContainsHeader(t *testing.T) {
	g := buildGraph(t, `
routine f()
real x
do i = 1, 3
x = 1
enddo
end
`)
	tr := New(g)
	df := tr.Frontier()
	l := g.Loops[0]
	// The body (which contains the backedge source) has the header in
	// its frontier — that is where φEntry goes.
	foundHeader := false
	for _, b := range g.Blocks {
		for _, f := range df.Of(b.ID) {
			if f == l.Header {
				foundHeader = true
			}
		}
	}
	if !foundHeader {
		t.Error("loop header must appear in some dominance frontier")
	}
}

// TestDeepNesting builds a pathologically deep chain of nested loops —
// the CFG shape that overflowed the stack when the DFS walks in New
// were recursive — and checks the tree is still correct end to end.
func TestDeepNesting(t *testing.T) {
	const depth = 2000
	var sb strings.Builder
	sb.WriteString("routine deep(n)\nreal a(n)\n!hpf$ distribute (block) :: a\n")
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&sb, "do i%d = 1, 2\n", i)
	}
	sb.WriteString("a(1) = 1\n")
	for i := 0; i < depth; i++ {
		sb.WriteString("enddo\n")
	}
	sb.WriteString("end\n")
	g := buildGraph(t, sb.String())
	tree := New(g)
	// Every loop header must be dominated by every enclosing header;
	// spot-check the innermost block against the entry chain.
	inner := g.Blocks[len(g.Blocks)-1]
	if !tree.Dominates(g.EntryBlock, inner) {
		t.Fatal("entry must dominate every reachable block")
	}
	for _, b := range g.Blocks {
		if b != g.EntryBlock && tree.IDom(b) == nil {
			t.Fatalf("B%d reachable but has no idom", b.ID)
		}
	}
}

// TestUnreachableBlocks pins what New does with blocks the entry does not
// reach (cfg.Build makes none; New takes any graph): such a block has no
// immediate dominator and no dominator-tree children, dominates nothing
// and is dominated by nothing, itself included, and the reachable blocks'
// tree is the one it would be without it. The cycle u1 ⇄ u2 hangs off
// the graph, entered from u0, which has no predecessor, and feeds b:
// Verify's reference has to leave an unreachable predecessor out of b's
// intersection, or b is dominated by itself alone.
func TestUnreachableBlocks(t *testing.T) {
	g := &cfg.Graph{}
	blk := func() *cfg.Block {
		b := &cfg.Block{ID: len(g.Blocks)}
		g.Blocks = append(g.Blocks, b)
		return b
	}
	edge := func(from, to *cfg.Block) {
		from.Succs = append(from.Succs, to)
		to.Preds = append(to.Preds, from)
	}
	entry, u1, a, u2, b, u0 := blk(), blk(), blk(), blk(), blk(), blk()
	g.EntryBlock = entry
	edge(entry, a)
	edge(a, b)
	edge(u1, u2)
	edge(u2, u1)
	edge(u0, u1)
	edge(u2, b)
	tr := New(g)
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, u := range []*cfg.Block{u0, u1, u2} {
		if d := tr.IDom(u); d != nil {
			t.Errorf("unreachable B%d has idom B%d, want none", u.ID, d.ID)
		}
		if kids := tr.Children(u.ID); len(kids) != 0 {
			t.Errorf("unreachable B%d has dominator-tree children %v", u.ID, kids)
		}
		for _, o := range g.Blocks {
			if tr.Dominates(u, o) || tr.Dominates(o, u) {
				t.Errorf("Dominates relates unreachable B%d and B%d", u.ID, o.ID)
			}
		}
	}
	if tr.IDom(a) != entry || tr.IDom(b) != a {
		t.Errorf("idom(a) = %v, idom(b) = %v; want the entry and a", tr.IDom(a), tr.IDom(b))
	}
	if kids := tr.Children(entry.ID); len(kids) != 1 || kids[0] != a.ID {
		t.Errorf("entry's children %v, want [B%d]", kids, a.ID)
	}
	if !tr.Dominates(entry, b) || !tr.Dominates(a, b) {
		t.Error("the reachable chain entry → a → b must dominate down")
	}
}
