// Package ssa builds static single assignment form over the array
// variables of a routine, in the style the paper inherits from Cytron
// et al. and Choi/Cytron/Ferrante: every regular array definition is
// *preserving* (it may write only part of the array, so it takes the
// previous SSA value as an input), φ-defs appear at loop headers
// (φEntry — the augmented CFG's preheader/backedge join), at postexits
// (φExit — the exit/zero-trip join), and at ordinary joins, and a
// pseudo-def at ENTRY exists for every variable, which simplifies the
// dataflow walks (§4.1).
//
// Blocks, statements, variables and defs are all numbered densely, so
// construction and the walks over the def chains index slices, never
// maps: a block or statement by its cfg ID, a variable by its order of
// first appearance, a def by its DefID.
package ssa

import (
	"fmt"
	"strconv"

	"gcao/internal/ast"
	"gcao/internal/cfg"
	"gcao/internal/dom"
)

// Def is an SSA definition of an array variable: a regular def, a
// φ-def, or the ENTRY pseudo-def.
type Def interface {
	VarName() string
	DefBlock() *cfg.Block
	// DefID numbers the def densely within its Info: ENTRY pseudo-defs
	// first, then φ-defs, then regular defs, 0 ≤ DefID < Info.NumDefs.
	DefID() int
	String() string
}

// EntryDef is the pseudo-definition at ENTRY (§4.1: "there is a
// pseudo-def at ENTRY for each variable accessed in the routine").
type EntryDef struct {
	Var string
	Blk *cfg.Block
	id  int
}

func (d *EntryDef) VarName() string      { return d.Var }
func (d *EntryDef) DefBlock() *cfg.Block { return d.Blk }
func (d *EntryDef) DefID() int           { return d.id }
func (d *EntryDef) String() string       { return d.Var + "@ENTRY" }

// RegularDef is a textual definition: the LHS of an assignment. All
// regular array defs are preserving, so the def carries the previous
// SSA value as Input.
type RegularDef struct {
	Var     string
	Stmt    *cfg.Stmt
	LHS     *ast.Ref
	Input   Def
	Version int
	id      int
}

func (d *RegularDef) VarName() string      { return d.Var }
func (d *RegularDef) DefBlock() *cfg.Block { return d.Stmt.Block }
func (d *RegularDef) DefID() int           { return d.id }
func (d *RegularDef) String() string {
	return d.Var + "_" + strconv.Itoa(d.Version) + "@" + d.Stmt.Label()
}

// PhiKind distinguishes the paper's φEntry / φExit from plain joins.
type PhiKind int

const (
	PhiJoin PhiKind = iota
	PhiEntry
	PhiExit
)

func (k PhiKind) String() string {
	switch k {
	case PhiEntry:
		return "φEntry"
	case PhiExit:
		return "φExit"
	}
	return "φ"
}

// PhiDef is a φ-definition at the top of a join/header/postexit block.
// Args are aligned with the block's predecessor list.
type PhiDef struct {
	Var     string
	Blk     *cfg.Block
	Kind    PhiKind
	Args    []Def
	Version int
	id      int
	v       int // Var's number
}

func (d *PhiDef) VarName() string      { return d.Var }
func (d *PhiDef) DefBlock() *cfg.Block { return d.Blk }
func (d *PhiDef) DefID() int           { return d.id }
func (d *PhiDef) String() string {
	return d.Var + "_" + strconv.Itoa(d.Version) + "=" + d.Kind.String() + "@B" + strconv.Itoa(d.Blk.ID)
}

// Use is a read of an array variable inside an assignment's RHS (or,
// for reductions, inside a SUM argument).
type Use struct {
	Var         string
	Stmt        *cfg.Stmt
	Ref         *ast.Ref
	Reaching    Def
	InReduction bool
	ID          int
}

func (u *Use) String() string {
	return fmt.Sprintf("use#%d %s@%s", u.ID, ast.ExprString(u.Ref), u.Stmt.Label())
}

// Info is the SSA form of a routine.
type Info struct {
	G   *cfg.Graph
	Dom *dom.Tree
	// Entries holds the ENTRY pseudo-def of every array variable the
	// routine mentions, in order of first appearance; a variable's
	// index here is its number.
	Entries []*EntryDef
	Defs    []*RegularDef
	Phis    []*PhiDef
	Uses    []*Use
	// NumDefs counts the entries, φs and regular defs: their DefIDs are
	// 0 … NumDefs−1.
	NumDefs int
	// PhisByBlock lists the φ-defs at the top of each block, indexed by
	// block ID.
	PhisByBlock [][]*PhiDef
	// DefOfStmt holds a statement's array def, if any, indexed by
	// statement ID.
	DefOfStmt []*RegularDef
	// UsesOfStmt holds a statement's array uses, indexed by statement
	// ID.
	UsesOfStmt [][]*Use

	// varIndex numbers the array variables: the index into Entries.
	varIndex map[string]int
}

// builder holds what construction needs beside the Info it fills.
type builder struct {
	info  *Info
	sites [][]*cfg.Block // sites[v]: the blocks defining variable v, in statement order
	// The numbering pass's findings per statement, so that renaming
	// neither walks an expression again nor looks a name up: statement
	// i's array reads are reads[readsAt[i]:readsAt[i+1]], in collectUses
	// order, and lhs[i] numbers the array it defines, or is −1.
	reads   []read
	readsAt []int
	lhs     []int
	// Renaming state: the def of each variable reaching the walk's
	// current point, the last version handed out, and the defs the walk
	// has shadowed, restored as it leaves a dominator subtree.
	cur     []Def
	version []int
	undo    []shadowed
	// Every Use and RegularDef is carved from one allocation.
	useSlab []Use
	defSlab []RegularDef
}

type shadowed struct {
	v int
	d Def
}

// read is an array reference on a right-hand side and its variable's
// number.
type read struct {
	ref   *ast.Ref
	v     int
	inSum bool
}

// Build constructs SSA form for the array variables named in isArray.
// A numbering pass over the statements counts what the form holds — its
// variables, their def sites, the reads — and every table is then
// carved from an allocation of that size: construction allocates by the
// routine, not by the def.
func Build(g *cfg.Graph, t *dom.Tree, isArray func(name string) bool) *Info {
	info := &Info{G: g, Dom: t, varIndex: map[string]int{}}
	b := &builder{info: info}

	// Number the variables in order of first appearance and record every
	// statement's array reads and def.
	ns := len(g.Stmts)
	ints := make([]int, 2*ns+1)
	b.readsAt, b.lhs = ints[:ns+1], ints[ns+1:]
	b.reads = make([]read, 0, 2*ns) // the Fig. 10(a) routines read two arrays a statement
	nDefs := 0
	for i, st := range g.Stmts {
		b.lhs[i] = -1
		if st.Assign != nil {
			if name := st.Assign.LHS.Name; isArray(name) {
				b.lhs[i] = b.index(name)
				nDefs++
			}
			collectUses(st.Assign.RHS, false, func(r *ast.Ref, inSum bool) {
				if isArray(r.Name) {
					b.reads = append(b.reads, read{r, b.index(r.Name), inSum})
				}
			})
		}
		b.readsAt[i+1] = len(b.reads)
	}
	nv := len(info.varIndex)
	nUses := len(b.reads)

	// The ENTRY pseudo-defs, and each variable's def sites in statement
	// order: version counts them until the sites are carved.
	entries := make([]EntryDef, nv)
	info.Entries = make([]*EntryDef, nv)
	for name, v := range info.varIndex {
		entries[v] = EntryDef{Var: name, Blk: g.EntryBlock, id: v}
		info.Entries[v] = &entries[v]
	}
	b.version = make([]int, nv)
	for _, v := range b.lhs {
		if v >= 0 {
			b.version[v]++
		}
	}
	b.sites = make([][]*cfg.Block, nv)
	all := make([]*cfg.Block, nDefs)
	for v, k := range b.version {
		b.sites[v], all = all[:0:k], all[k:]
		b.version[v] = 0
	}
	for i, v := range b.lhs {
		if v >= 0 {
			b.sites[v] = append(b.sites[v], g.Stmts[i].Block)
		}
	}

	b.placePhis()
	info.NumDefs = nv + len(info.Phis) + nDefs

	b.cur = make([]Def, nv)
	for v, e := range info.Entries {
		b.cur[v] = e
	}
	b.undo = make([]shadowed, 0, len(info.Phis)+nDefs)
	b.useSlab = make([]Use, nUses)
	b.defSlab = make([]RegularDef, nDefs)
	info.Uses = make([]*Use, 0, nUses)
	defs := make([]*RegularDef, nDefs+ns)
	info.Defs, info.DefOfStmt = defs[:0:nDefs], defs[nDefs:]
	b.rename(g.EntryBlock.ID)

	// A statement's uses are renamed together, so they sit side by side.
	info.UsesOfStmt = make([][]*Use, ns)
	for i := 0; i < len(info.Uses); {
		j := i + 1
		for j < len(info.Uses) && info.Uses[j].Stmt == info.Uses[i].Stmt {
			j++
		}
		info.UsesOfStmt[info.Uses[i].Stmt.ID] = info.Uses[i:j:j]
		i = j
	}
	return info
}

// index returns a variable's number, numbering it on first sight.
func (b *builder) index(name string) int {
	v, ok := b.info.varIndex[name]
	if !ok {
		v = len(b.info.varIndex)
		b.info.varIndex[name] = v
	}
	return v
}

// placePhis inserts φ-defs at the iterated dominance frontiers of every
// variable's def sites. It walks the frontiers twice: the first walk
// counts the φs, their arguments and the φs per block, so that the
// second fills the φs, their arguments and the per-block lists, each
// from one allocation, in the order the first found them. The worklist's
// membership and the blocks that already hold the variable's φ are
// stamps by block ID, new for every variable of every walk.
func (b *builder) placePhis() {
	info := b.info
	nb, nv := len(info.G.Blocks), len(b.sites)
	df := info.Dom.Frontier()
	maxSites := 0
	for _, defSites := range b.sites {
		maxSites = max(maxSites, len(defSites))
	}
	marks := make([]int, 3*nb)
	onWork, hasPhi, perBlock := marks[:nb], marks[nb:2*nb], marks[2*nb:]
	// A variable's worklist starts as its def sites; a block joins it
	// once after that.
	work := make([]*cfg.Block, 0, maxSites+nb)
	walk := func(base int, add func(v int, blk *cfg.Block)) {
		for v, defSites := range b.sites {
			stamp := base + v + 1
			work = append(work[:0], defSites...)
			for _, blk := range work {
				onWork[blk.ID] = stamp
			}
			for len(work) > 0 {
				blk := work[len(work)-1]
				work = work[:len(work)-1]
				for _, fb := range df[blk.ID] {
					if hasPhi[fb.ID] == stamp {
						continue
					}
					hasPhi[fb.ID] = stamp
					add(v, fb)
					if onWork[fb.ID] != stamp {
						onWork[fb.ID] = stamp
						work = append(work, fb)
					}
				}
			}
		}
	}
	nphis, nargs := 0, 0
	walk(0, func(_ int, fb *cfg.Block) {
		nphis++
		nargs += len(fb.Preds)
		perBlock[fb.ID]++
	})

	phis := make([]PhiDef, nphis)
	args := make([]Def, nargs)
	lists := make([]*PhiDef, 2*nphis)
	info.Phis, lists = lists[:nphis:nphis], lists[nphis:]
	info.PhisByBlock = make([][]*PhiDef, nb)
	for id, n := range perBlock {
		if n > 0 {
			info.PhisByBlock[id], lists = lists[:0:n], lists[n:]
		}
	}
	i := 0
	walk(nv, func(v int, blk *cfg.Block) {
		kind := PhiJoin
		switch blk.Kind {
		case cfg.Header:
			kind = PhiEntry
		case cfg.PostExit:
			kind = PhiExit
		}
		n := len(blk.Preds)
		phis[i] = PhiDef{Var: info.Entries[v].Var, Blk: blk, Kind: kind, Args: args[:n:n], id: nv + i, v: v}
		args = args[n:]
		info.Phis[i] = &phis[i]
		info.PhisByBlock[blk.ID] = append(info.PhisByBlock[blk.ID], &phis[i])
		i++
	})
}

// define makes d the def of variable v reaching what follows, with the
// variable's next version.
func (b *builder) define(v int, d Def) int {
	b.undo = append(b.undo, shadowed{v, b.cur[v]})
	b.cur[v] = d
	b.version[v]++
	return b.version[v]
}

// rename walks the dominator tree from block id, giving every φ and
// regular def its version and every use its reaching def, and filling
// the φ arguments of the successors.
func (b *builder) rename(id int) {
	info := b.info
	blk := info.G.Blocks[id]
	mark := len(b.undo)
	for _, phi := range info.PhisByBlock[id] {
		phi.Version = b.define(phi.v, phi)
	}
	for _, st := range blk.Stmts {
		for _, rd := range b.reads[b.readsAt[st.ID]:b.readsAt[st.ID+1]] {
			u := &b.useSlab[len(info.Uses)]
			*u = Use{Var: rd.ref.Name, Stmt: st, Ref: rd.ref, Reaching: b.cur[rd.v], InReduction: rd.inSum, ID: len(info.Uses)}
			info.Uses = append(info.Uses, u)
		}
		if v := b.lhs[st.ID]; v >= 0 {
			d := &b.defSlab[len(info.Defs)]
			*d = RegularDef{Var: st.Assign.LHS.Name, Stmt: st, LHS: st.Assign.LHS, Input: b.cur[v],
				id: len(info.Entries) + len(info.Phis) + len(info.Defs)}
			d.Version = b.define(v, d)
			info.Defs = append(info.Defs, d)
			info.DefOfStmt[st.ID] = d
		}
	}
	for _, s := range blk.Succs {
		j := predIndex(s, blk)
		for _, phi := range info.PhisByBlock[s.ID] {
			phi.Args[j] = b.cur[phi.v]
		}
	}
	for _, c := range info.Dom.Children(id) {
		b.rename(c)
	}
	for len(b.undo) > mark {
		last := b.undo[len(b.undo)-1]
		b.cur[last.v] = last.d
		b.undo = b.undo[:len(b.undo)-1]
	}
}

func predIndex(b, pred *cfg.Block) int {
	for i, p := range b.Preds {
		if p == pred {
			return i
		}
	}
	return -1
}

// collectUses walks an RHS expression reporting every array reference
// together with whether it sits inside a SUM call.
func collectUses(e ast.Expr, inSum bool, f func(r *ast.Ref, inSum bool)) {
	switch e := e.(type) {
	case nil:
	case *ast.Ref:
		f(e, inSum)
		for _, s := range e.Subs {
			collectUses(s.X, inSum, f)
			collectUses(s.Lo, inSum, f)
			collectUses(s.Hi, inSum, f)
			collectUses(s.Step, inSum, f)
		}
	case *ast.Ident:
		// Whole-array identifiers were expanded by the scalarizer;
		// plain scalars are not array uses.
	case *ast.BinExpr:
		collectUses(e.X, inSum, f)
		collectUses(e.Y, inSum, f)
	case *ast.UnaryExpr:
		collectUses(e.X, inSum, f)
	case *ast.Call:
		child := inSum || e.Func == "sum"
		for _, a := range e.Args {
			collectUses(a, child, f)
		}
	}
}

// CNL returns the common nesting level of a def and a use (paper
// notation CNL(d, u)): how many loops, outermost first, enclose both the
// def — a regular def's statement, a φ-def's block, none for ENTRY — and
// the use, without building the def's list. Loops nest, so the deepest
// loop of the def's that also encloses the use has every shallower one
// in common too.
func CNL(d Def, u *Use) int {
	ul := u.Stmt.Loops
	switch d := d.(type) {
	case *RegularDef:
		dl := d.Stmt.Loops
		n := 0
		for n < len(dl) && n < len(ul) && dl[n] == ul[n] {
			n++
		}
		return n
	case *PhiDef:
		for l := d.Blk.Loop; l != nil; l = l.Parent {
			if l.Depth <= len(ul) && ul[l.Depth-1] == l {
				return l.Depth
			}
		}
	}
	return 0
}

// Marks is a set of an Info's defs for one walk over the def chains,
// emptied in O(1) by Clear. It belongs to the walk's caller: an Info is
// shared by every analysis of its routine and holds none.
type Marks struct {
	stamp []uint32
	epoch uint32
}

// NewMarks returns an empty set over info's defs.
func (info *Info) NewMarks() Marks {
	return Marks{stamp: make([]uint32, info.NumDefs), epoch: 1}
}

// Clear empties the set.
func (m *Marks) Clear() {
	if m.epoch++; m.epoch == 0 {
		clear(m.stamp)
		m.epoch = 1
	}
}

// Mark adds d to the set and reports whether it was absent.
func (m *Marks) Mark(d Def) bool {
	id := d.DefID()
	if m.stamp[id] == m.epoch {
		return false
	}
	m.stamp[id] = m.epoch
	return true
}

// Validate checks SSA invariants: every def has a distinct DefID below
// NumDefs, every φ argument is filled, every use's reaching def
// dominates the use (for regular defs and φs), and a variable with k φ
// and regular defs numbers their versions 1 … k, each once. Used by
// tests and by every skeleton build.
func (info *Info) Validate() error {
	if n := len(info.Entries) + len(info.Defs) + len(info.Phis); n != info.NumDefs {
		return fmt.Errorf("ssa: %d defs, NumDefs %d", n, info.NumDefs)
	}
	ids := make([]bool, info.NumDefs)
	// Variable v's versions 1 … k, one per φ and regular def of v, are
	// the slots base[v] … base[v]+k−1 of one table.
	base := make([]int, len(info.Entries)+1)
	for _, d := range info.Defs {
		if v, ok := info.varIndex[d.Var]; ok {
			base[v+1]++
		}
	}
	for _, p := range info.Phis {
		if v, ok := info.varIndex[p.Var]; ok {
			base[v+1]++
		}
	}
	for v := range info.Entries {
		base[v+1] += base[v]
	}
	seen := make([]bool, base[len(info.Entries)])
	note := func(d Def, ver int) error {
		id := d.DefID()
		if id < 0 || id >= len(ids) {
			return fmt.Errorf("ssa: %s has DefID %d outside [0, %d)", d, id, len(ids))
		}
		if ids[id] {
			return fmt.Errorf("ssa: %s repeats DefID %d", d, id)
		}
		ids[id] = true
		if ver < 0 {
			return nil // the ENTRY pseudo-def
		}
		v, ok := info.varIndex[d.VarName()]
		if !ok {
			return fmt.Errorf("ssa: %s defines an unnumbered variable", d)
		}
		if ver < 1 || base[v]+ver > base[v+1] {
			return fmt.Errorf("ssa: %s has version %d outside [1, %d]", d, ver, base[v+1]-base[v])
		}
		if seen[base[v]+ver-1] {
			return fmt.Errorf("ssa: duplicate version %s_%d", d.VarName(), ver)
		}
		seen[base[v]+ver-1] = true
		return nil
	}
	for _, e := range info.Entries {
		if err := note(e, -1); err != nil {
			return err
		}
	}
	for _, d := range info.Defs {
		if err := note(d, d.Version); err != nil {
			return err
		}
		if d.Input == nil {
			return fmt.Errorf("ssa: %s has nil input", d)
		}
	}
	for _, p := range info.Phis {
		if err := note(p, p.Version); err != nil {
			return err
		}
		for i, a := range p.Args {
			if a == nil {
				return fmt.Errorf("ssa: %s arg %d unfilled", p, i)
			}
		}
		switch p.Blk.Kind {
		case cfg.Header:
			if p.Kind != PhiEntry {
				return fmt.Errorf("ssa: %s at header not PhiEntry", p)
			}
		case cfg.PostExit:
			if p.Kind != PhiExit {
				return fmt.Errorf("ssa: %s at postexit not PhiExit", p)
			}
		}
	}
	for _, u := range info.Uses {
		if u.Reaching == nil {
			return fmt.Errorf("ssa: %s has nil reaching def", u)
		}
		if !info.Dom.Dominates(u.Reaching.DefBlock(), u.Stmt.Block) {
			return fmt.Errorf("ssa: reaching def %s does not dominate %s", u.Reaching, u)
		}
	}
	return nil
}
