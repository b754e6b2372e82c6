// Package cfg builds the augmented control flow graph of §4.1 / Fig. 7
// of the paper: a graph of basic blocks in which every loop has an
// explicit preheader node (dominating the whole loop), a header node, a
// postexit node per exit target, and a zero-trip edge from the
// preheader to the postexit. The extra nodes give the dataflow
// analyses convenient summary points and give the placement algorithm
// positions "just before the loop" to hoist communication to.
//
// The input language is structured (DO and IF/ELSE only), so the graph
// is reducible by construction; every loop has exactly one backedge and
// one postexit.
package cfg

import (
	"fmt"
	"strconv"
	"strings"

	"gcao/internal/ast"
)

// BlockKind classifies blocks for diagnostics and for the placement
// pass (preheaders are preferred hoisting points).
type BlockKind int

const (
	Plain BlockKind = iota
	Entry
	Exit
	PreHeader
	Header
	PostExit
	Join
)

func (k BlockKind) String() string {
	switch k {
	case Plain:
		return "plain"
	case Entry:
		return "entry"
	case Exit:
		return "exit"
	case PreHeader:
		return "preheader"
	case Header:
		return "header"
	case PostExit:
		return "postexit"
	case Join:
		return "join"
	}
	return fmt.Sprintf("BlockKind(%d)", int(k))
}

// Stmt is a statement placed in the CFG: an assignment (possibly a
// reduction) from the scalarized AST. Control constructs do not appear
// as statements; they are encoded in the graph structure.
type Stmt struct {
	ID     int
	Assign *ast.AssignStmt
	Block  *Block
	Index  int // position within Block.Stmts
	// Loops lists the enclosing loops, outermost first.
	Loops []*Loop
	// label is what Label reports, set by Build.
	label string
}

// NL returns the statement's nesting level: the number of loops
// containing it (paper notation NL(v)).
func (s *Stmt) NL() int { return len(s.Loops) }

// Label returns the statement's source label for diagnostics: the
// assignment's own Label when it has one, else L<line> of its source
// line. Build derives every label once, so a call allocates nothing.
func (s *Stmt) Label() string {
	if s.label != "" {
		return s.label
	}
	return "s" + strconv.Itoa(s.ID)
}

func (s *Stmt) String() string {
	if s.Assign == nil {
		return fmt.Sprintf("stmt#%d", s.ID)
	}
	return fmt.Sprintf("%s: %s = %s", s.Label(), ast.ExprString(s.Assign.LHS), ast.ExprString(s.Assign.RHS))
}

// Block is a basic block.
type Block struct {
	ID    int
	Kind  BlockKind
	Stmts []*Stmt
	Succs []*Block
	Preds []*Block
	// Loop is the innermost loop containing this block, nil at top
	// level. A loop's header and body blocks belong to the loop; its
	// preheader and postexit belong to the enclosing loop.
	Loop *Loop
	// Branch holds the IF statement whose condition terminates this
	// block; Succs[0] is the then-entry and Succs[1] the else-entry
	// (or the join when there is no else). Interpreters use it to pick
	// a successor.
	Branch *ast.IfStmt
}

// NL returns the block's nesting level.
func (b *Block) NL() int {
	n := 0
	for l := b.Loop; l != nil; l = l.Parent {
		n++
	}
	return n
}

func (b *Block) String() string {
	return fmt.Sprintf("B%d<%s>", b.ID, b.Kind)
}

// Loop is a DO loop with its augmented nodes.
type Loop struct {
	ID     int
	Do     *ast.DoStmt
	Parent *Loop
	// Depth is the paper's NL(L) counting the loop itself: the
	// outermost loop has Depth 1.
	Depth     int
	PreHeader *Block
	Header    *Block
	PostExit  *Block
	Children  []*Loop
}

// Var returns the loop index variable name.
func (l *Loop) Var() string { return l.Do.Var }

// Graph is the augmented CFG of one routine body.
type Graph struct {
	EntryBlock *Block
	ExitBlock  *Block
	Blocks     []*Block
	Loops      []*Loop // all loops, preorder
	Stmts      []*Stmt // all statements, program order
}

// builder carves everything a graph holds from backing arrays sized by
// one count of the body: the blocks and their edge lists, statements,
// loops, and the enclosing-loop lists statements share.
type builder struct {
	g      *Graph
	blocks []Block
	edges  []*Block // two successor and two predecessor slots per block
	stmts  []Stmt
	loops  []Loop
	paths  []*Loop // loop paths: a loop's is its parent's plus itself
	// The loops around the statement being built, outermost first,
	// shared by every statement directly in the innermost one.
	path []*Loop
	// topLoops counts the loops no loop contains.
	topLoops int
}

// size counts what the graph of body holds: blocks beyond ENTRY and
// EXIT, statements, loops, and the lengths of the loops' paths.
func size(body []ast.Stmt, depth int) (blocks, stmts, loops, paths int) {
	for _, s := range body {
		switch s := s.(type) {
		case *ast.AssignStmt:
			stmts++
		case *ast.IfStmt:
			blocks += 2
			if len(s.Else) > 0 {
				blocks++
			}
			for _, arm := range [...][]ast.Stmt{s.Then, s.Else} {
				b, st, l, p := size(arm, depth)
				blocks, stmts, loops, paths = blocks+b, stmts+st, loops+l, paths+p
			}
		case *ast.DoStmt:
			b, st, l, p := size(s.Body, depth+1)
			blocks, stmts, loops, paths = blocks+4+b, stmts+st, loops+1+l, paths+depth+1+p
		}
	}
	return
}

// Build constructs the augmented CFG for a (scalarized) routine body.
func Build(body []ast.Stmt) *Graph {
	nb, ns, nl, np := size(body, 0)
	nb += 2
	b := &builder{
		g: &Graph{
			Blocks: make([]*Block, 0, nb),
			Stmts:  make([]*Stmt, 0, ns),
			Loops:  make([]*Loop, 0, nl),
		},
		blocks: make([]Block, nb),
		edges:  make([]*Block, 4*nb),
		stmts:  make([]Stmt, ns),
		loops:  make([]Loop, nl),
		paths:  make([]*Loop, np),
	}
	entry := b.newBlock(Entry)
	b.g.EntryBlock = entry
	last := b.build(body, entry)
	exit := b.newBlock(Exit)
	b.g.ExitBlock = exit
	b.edge(last, exit)
	b.children()
	b.labels()
	return b.g
}

// children fills every loop's Children, in preorder, from one array: a
// loop's children are the loops after it whose parent it is.
func (b *builder) children() {
	if b.topLoops == len(b.loops) {
		return
	}
	count := make([]int, len(b.loops)) // children per loop
	for _, l := range b.g.Loops {
		if l.Parent != nil {
			count[l.Parent.ID]++
		}
	}
	all := make([]*Loop, len(b.loops)-b.topLoops)
	for _, l := range b.g.Loops {
		if n := count[l.ID]; n > 0 {
			l.Children, all = all[:0:n], all[n:]
		}
		if l.Parent != nil {
			l.Parent.Children = append(l.Parent.Children, l)
		}
	}
}

// labels derives the label of every statement whose assignment carries
// none — L<line> — into one string the statements share.
func (b *builder) labels() {
	var num [20]byte
	n := 0
	for i := range b.stmts {
		if a := b.stmts[i].Assign; a.Label == "" {
			n += 1 + len(strconv.AppendInt(num[:0], int64(a.Pos.Line), 10))
		}
	}
	var sb strings.Builder
	sb.Grow(n)
	for i := range b.stmts {
		if a := b.stmts[i].Assign; a.Label == "" {
			sb.WriteByte('L')
			sb.Write(strconv.AppendInt(num[:0], int64(a.Pos.Line), 10))
		}
	}
	all := sb.String()
	for i := range b.stmts {
		st := &b.stmts[i]
		if st.label = st.Assign.Label; st.label == "" {
			k := 1 + len(strconv.AppendInt(num[:0], int64(st.Assign.Pos.Line), 10))
			st.label, all = all[:k], all[k:]
		}
	}
}

// newBlock carves the next block. No block has more than two successors
// or two predecessors, so both lists fit the slots carved with it.
func (b *builder) newBlock(kind BlockKind) *Block {
	id := len(b.g.Blocks)
	blk := &b.blocks[id]
	*blk = Block{ID: id, Kind: kind, Succs: b.edges[4*id : 4*id : 4*id+2], Preds: b.edges[4*id+2 : 4*id+2 : 4*id+4]}
	if n := len(b.path); n > 0 {
		blk.Loop = b.path[n-1]
	}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// build appends the CFG for stmts starting in cur and returns the block
// where control continues.
func (b *builder) build(stmts []ast.Stmt, cur *Block) *Block {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.AssignStmt:
			id := len(b.g.Stmts)
			st := &b.stmts[id]
			*st = Stmt{
				ID:     id,
				Assign: s,
				Block:  cur,
				Index:  len(cur.Stmts),
				Loops:  b.path,
			}
			b.g.Stmts = append(b.g.Stmts, st)
			// A block's statements are consecutive in program order: its
			// list is a window on the graph's, capped at its end.
			cur.Stmts = b.g.Stmts[id-len(cur.Stmts) : id+1 : id+1]

		case *ast.IfStmt:
			cur.Branch = s
			thenB := b.newBlock(Plain)
			join := b.newBlock(Join)
			b.edge(cur, thenB)
			thenEnd := b.build(s.Then, thenB)
			b.edge(thenEnd, join)
			if len(s.Else) > 0 {
				elseB := b.newBlock(Plain)
				b.edge(cur, elseB)
				elseEnd := b.build(s.Else, elseB)
				b.edge(elseEnd, join)
			} else {
				b.edge(cur, join)
			}
			cur = join

		case *ast.DoStmt:
			var parent *Loop
			if n := len(b.path); n > 0 {
				parent = b.path[n-1]
			}
			loop := &b.loops[len(b.g.Loops)]
			*loop = Loop{
				ID:     len(b.g.Loops),
				Do:     s,
				Parent: parent,
				Depth:  len(b.path) + 1,
			}
			if parent == nil {
				b.topLoops++
			}
			b.g.Loops = append(b.g.Loops, loop)

			pre := b.newBlock(PreHeader) // belongs to enclosing loop
			b.edge(cur, pre)
			loop.PreHeader = pre

			outer := b.path
			n := len(outer) + 1
			b.path, b.paths = b.paths[:n:n], b.paths[n:]
			copy(b.path, outer)
			b.path[n-1] = loop
			hdr := b.newBlock(Header)
			loop.Header = hdr
			b.edge(pre, hdr)
			bodyB := b.newBlock(Plain)
			b.edge(hdr, bodyB)
			bodyEnd := b.build(s.Body, bodyB)
			b.edge(bodyEnd, hdr) // backedge
			b.path = outer

			post := b.newBlock(PostExit) // belongs to enclosing loop
			loop.PostExit = post
			b.edge(hdr, post) // loop exit edge
			b.edge(pre, post) // zero-trip edge
			cur = post

		default:
			// Unreachable from source: the one other statement kind is
			// ast.CallStmt, and sem rejects a call the inliner left
			// behind with a positioned error (5:1: sem: call to "foo"
			// not inlined), so no checked body reaches here with one.
			panic(fmt.Sprintf("cfg: unexpected statement type %T", s))
		}
	}
	return cur
}

// CommonLoops returns the loops containing both statements, outermost
// first: a prefix of a.Loops, which callers must not write to.
func CommonLoops(a, d *Stmt) []*Loop {
	n := 0
	for n < len(a.Loops) && n < len(d.Loops) && a.Loops[n] == d.Loops[n] {
		n++
	}
	return a.Loops[:n:n]
}

// String renders the graph for debugging.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "%s (NL=%d)", blk, blk.NL())
		if len(blk.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&sb, " B%d", s.ID)
			}
		}
		sb.WriteByte('\n')
		for _, st := range blk.Stmts {
			fmt.Fprintf(&sb, "  %s\n", st)
		}
	}
	return sb.String()
}

// Validate checks structural invariants; it is used by tests and
// returns a descriptive error on violation.
func (g *Graph) Validate() error {
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			if !contains(s.Preds, blk) {
				return fmt.Errorf("cfg: %s -> %s missing pred backlink", blk, s)
			}
		}
		for _, p := range blk.Preds {
			if !contains(p.Succs, blk) {
				return fmt.Errorf("cfg: %s <- %s missing succ link", blk, p)
			}
		}
		for i, st := range blk.Stmts {
			if st.Block != blk || st.Index != i {
				return fmt.Errorf("cfg: statement %s has stale block/index", st)
			}
		}
	}
	for _, l := range g.Loops {
		if l.PreHeader == nil || l.Header == nil || l.PostExit == nil {
			return fmt.Errorf("cfg: loop %d missing augmented nodes", l.ID)
		}
		if l.Header.Loop != l {
			return fmt.Errorf("cfg: loop %d header not inside loop", l.ID)
		}
		if l.PreHeader.Loop == l || l.PostExit.Loop == l {
			return fmt.Errorf("cfg: loop %d preheader/postexit inside loop", l.ID)
		}
	}
	return nil
}

func contains(bs []*Block, b *Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}
