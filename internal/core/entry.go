// Package core implements the paper's contribution: global analysis
// and optimization of communication placement. For every non-local
// array reference it derives a communication entry with its earliest
// and latest safe positions (§4.2–4.3), marks the dominator-path
// candidate set (§4.4), performs subset elimination (§4.5) and global
// redundancy elimination over ASDs (§4.6), and finally chooses
// positions with the greedy combining heuristic (§4.7). Baseline
// strategies reproducing the paper's "orig" and "nored" compiler
// versions are provided for the evaluation harness.
package core

import (
	"fmt"
	"strconv"
	"strings"
	"unsafe"

	"gcao/internal/asd"
	"gcao/internal/ast"
	"gcao/internal/cfg"
	"gcao/internal/dist"
	"gcao/internal/heapsize"
	"gcao/internal/lin"
	"gcao/internal/sem"
	"gcao/internal/ssa"
)

// Position identifies a point in the CFG where communication code can
// be inserted: immediately after statement Block.Stmts[After], or at
// the top of the block when After is −1. The paper's "communication is
// placed at d means immediately after d" (§4.1).
type Position struct {
	Block *cfg.Block
	After int
}

// Valid reports whether the position indexes its block consistently.
func (p Position) Valid() bool {
	return p.Block != nil && p.After >= -1 && p.After < len(p.Block.Stmts)
}

// Level returns the loop nesting level of the position.
func (p Position) Level() int { return p.Block.NL() }

func (p Position) String() string {
	if p.Block == nil {
		return "<nil>"
	}
	if p.After < 0 {
		return "B" + strconv.Itoa(p.Block.ID) + ".top"
	}
	return "B" + strconv.Itoa(p.Block.ID) + ".after(" + p.Block.Stmts[p.After].Label() + ")"
}

// CommKind classifies the communication needed by a use.
type CommKind int

const (
	// KindNone marks accesses that are purely local (owner-computes
	// alignment) or reads of replicated data.
	KindNone CommKind = iota
	// KindShift is nearest-neighbour communication (NNC).
	KindShift
	// KindReduce is a global reduction.
	KindReduce
	// KindBcast replicates one owner's data everywhere.
	KindBcast
	// KindGeneral is any other pattern (transpose, gather).
	KindGeneral
)

func (k CommKind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindShift:
		return "NNC"
	case KindReduce:
		return "SUM"
	case KindBcast:
		return "BCAST"
	case KindGeneral:
		return "GEN"
	}
	return fmt.Sprintf("CommKind(%d)", int(k))
}

// Entry is one communication requirement: a non-local use together
// with the analysis results that drive placement.
type Entry struct {
	ID    int
	Array string
	Kind  CommKind
	// Uses are the SSA uses this entry serves (coalescing can merge
	// several identical references).
	Uses []*ssa.Use
	// Map is the sender→receiver mapping.
	Map asd.Mapping
	// Offsets is the raw per-grid-dim element offset vector for shift
	// communication before diagonal coalescing.
	Offsets []int
	// dims holds the symbolic per-array-dimension section of the
	// reference with all loop variables symbolic.
	dims []asd.SymDim
	// levels[l] describes the entry placed at loop level l, for every
	// l in 0..len(Use().Stmt.Loops). Built once by buildLevelTable and
	// never written again.
	levels []levelInfo

	// CommLevel is the paper's CommLevel(u) (§4.2).
	CommLevel int
	// Latest is the latest safe position (§4.2); Earliest the earliest
	// single dominating def point (§4.3) and its position.
	Latest      Position
	EarliestDef ssa.Def
	Earliest    Position
	// Candidates is the dominator-path candidate set (§4.4), ordered
	// from Earliest to Latest.
	Candidates []Position

	// Coalesced marks diagonal NNC subsumed by axis exchanges; the
	// carriers satisfy this entry's use.
	Coalesced bool
	Carriers  []*Entry

	// Placement results (per Result, reset between strategies):
	// nothing is stored on the entry so one Analysis can be placed
	// under several strategies.
}

// ASDAt returns the entry's Available Section Descriptor as it would
// be communicated at the given loop level.
func (e *Entry) ASDAt(a *Analysis, level int) asd.ASD {
	return asd.ASD{Array: e.Array, Data: e.SectionAt(a, level), Map: e.Map}
}

// String renders the entry for diagnostics.
func (e *Entry) String() string {
	var labels []string
	for _, u := range e.Uses {
		labels = append(labels, u.Stmt.Label())
	}
	return fmt.Sprintf("e%d[%s %s @%s]", e.ID, e.Array, e.Kind, strings.Join(labels, ","))
}

// Use returns the entry's primary use.
func (e *Entry) Use() *ssa.Use { return e.Uses[0] }

// levelInfo is what placement asks about an entry at one loop level.
// Levels that expand no loop variable share their sections' Dims.
type levelInfo struct {
	// sec is the section communicated (SectionAt).
	sec counted
	// bytes is the per-processor message volume (BytesAt).
	bytes   int
	bytesOK bool
	// grid is sec projected onto the processor grid dimensions, for
	// the cross-array NNC test of combineVerdict.
	grid   counted
	gridOK bool
}

// counted is a section with its element count (NumElems), taken once
// when the level table is built: the combining test weighs hulls
// against it for every pair it asks about.
type counted struct {
	asd.SymSection
	n  int
	ok bool
}

func count(sec asd.SymSection) counted {
	n, ok := sec.NumElems()
	return counted{sec, n, ok}
}

// SectionAt returns the section communicated when the entry is placed
// at the given loop level: subscripts over loop variables of loops
// deeper than level are expanded ("message vectorization") using the
// loop bounds; shallower loop variables remain symbolic. Levels outside
// 0..nest depth read as the nearest one. The result is shared: callers
// must not write to its Dims.
func (e *Entry) SectionAt(a *Analysis, level int) asd.SymSection {
	return e.at(level).sec.SymSection
}

func (e *Entry) at(level int) *levelInfo {
	return &e.levels[max(0, min(level, len(e.levels)-1))]
}

// levelSlabs sizes the slabs every entry's per-level table is carved
// from: the tables, the section Dims of the expanded levels and grid
// projections, and grows — for each entry, one flag per loop of its nest
// saying whether placing the entry outside that loop expands its section.
// The Dims are sized exactly: one copy of the entry's section per loop
// that expands it, and one grid projection per level that differs from
// the one inside it.
func (a *Analysis) levelSlabs() (levels []levelInfo, dims []asd.SymDim, grows []bool) {
	nloops, nd := 0, 0
	for _, e := range a.Entries {
		nloops += len(e.Use().Stmt.Loops)
	}
	grows = make([]bool, 0, nloops)
	for _, e := range a.Entries {
		fresh := 1 // the innermost level's section is the entry's own
		for _, loop := range e.Use().Stmt.Loops {
			grows = append(grows, a.expands(e.dims, loop))
			if grows[len(grows)-1] {
				nd += len(e.dims)
				fresh++
			}
		}
		if e.Kind == KindShift {
			nd += fresh * a.Unit.Grid.Rank()
		}
	}
	levels, dims = make([]levelInfo, nloops+len(a.Entries)), make([]asd.SymDim, nd)
	a.bytes += heapsize.Slice(levels) + heapsize.Slice(dims) + heapsize.Slice(grows)
	return levels, dims, grows
}

// buildLevelTable fills the entry's per-level table from the innermost
// level outward: level l is level l+1 with loop l's variable expanded
// over its bounds. The table, its sections and the entry's expansion
// flags are carved from the levelSlabs slabs.
func (a *Analysis) buildLevelTable(e *Entry, levels *[]levelInfo, slab *[]asd.SymDim, grows *[]bool) {
	loops := e.Use().Stmt.Loops
	e.levels = carve(levels, len(loops)+1)
	expand := carve(grows, len(loops))
	dims := e.dims
	for level := len(loops); level >= 0; level-- {
		li := &e.levels[level]
		if level < len(loops) {
			if !expand[level] {
				*li = e.levels[level+1]
				continue
			}
			dims = a.expandLoop(dims, loops[level], slab)
		}
		li.sec = count(asd.SymSection{Dims: dims})
		li.bytes, li.bytesOK = e.BytesForSection(a, li.sec.SymSection)
		if e.Kind == KindShift {
			var grid asd.SymSection
			if grid, li.gridOK = a.gridSection(e, li.sec.SymSection, slab); li.gridOK {
				li.grid = count(grid)
			}
		}
	}
}

// expandLoop expands one loop's variable out of every dimension that
// mentions it, into a copy carved from slab. The caller has checked
// that the loop expands the section (expands).
func (a *Analysis) expandLoop(dims []asd.SymDim, loop *cfg.Loop, slab *[]asd.SymDim) []asd.SymDim {
	b, v := a.loopBound[loop.ID], loop.Var()
	out := carve(slab, len(dims))
	for di, d := range dims {
		out[di] = d
		if mentions(d, v) {
			out[di] = expandDim(d, v, b.lo, b.hi, b.step)
			// A substitution into a form of several terms makes a list.
			a.bytes += madeTerms(out[di].Lo, d.Lo) + madeTerms(out[di].Hi, d.Hi)
		}
	}
	return out
}

// expands reports whether expanding loop's variable changes a section:
// the loop's bounds are constant and a dimension mentions the variable
// (else the section stays per-iteration, which is conservative).
// Expanding an inner loop substitutes constants, so the answer is the
// same for an entry's own section as for its inner levels'.
func (a *Analysis) expands(dims []asd.SymDim, loop *cfg.Loop) bool {
	if !a.loopBound[loop.ID].ok {
		return false
	}
	v := loop.Var()
	for _, d := range dims {
		if mentions(d, v) {
			return true
		}
	}
	return false
}

func mentions(d asd.SymDim, v string) bool { return d.Lo.CoefOf(v) != 0 || d.Hi.CoefOf(v) != 0 }

// madeTerms returns the bytes of f's term list when it is not from's.
func madeTerms(f, from lin.Form) int64 {
	if len(f.Terms) == 0 || unsafe.SliceData(f.Terms) == unsafe.SliceData(from.Terms) {
		return 0
	}
	return heapsize.Slice(f.Terms)
}

// gridSection projects an entry's section onto the processor grid
// dimensions of its array's distribution, into Dims carved from slab.
func (a *Analysis) gridSection(e *Entry, sec asd.SymSection, slab *[]asd.SymDim) (asd.SymSection, bool) {
	arr := a.Unit.Arrays[e.Array]
	if arr == nil || arr.Dist == nil {
		return asd.SymSection{}, false
	}
	rank := a.Unit.Grid.Rank()
	var found uint64 // bit g: grid dimension g has an array dimension
	for k := range arr.Lo {
		if g := a.gridDimOfArrayDim(arr, k); g >= 0 && k < len(sec.Dims) {
			found |= 1 << g
		}
	}
	if found != 1<<rank-1 {
		return asd.SymSection{}, false
	}
	out := asd.SymSection{Dims: carve(slab, rank)}
	for k := range arr.Lo {
		if g := a.gridDimOfArrayDim(arr, k); g >= 0 && k < len(sec.Dims) {
			out.Dims[g] = sec.Dims[k]
		}
	}
	return out, true
}

// expandDim expands one loop variable out of a symbolic dimension that
// mentions it.
func expandDim(d asd.SymDim, v string, vlo, vhi, vstep int) asd.SymDim {
	cLo := d.Lo.CoefOf(v)
	cHi := d.Hi.CoefOf(v)
	if vstep < 1 {
		vstep = 1
	}
	// A positive coefficient reaches its extreme where the variable
	// does, a negative one at the opposite end.
	loAt, hiAt := vlo, vhi
	if cLo < 0 {
		loAt = vhi
	}
	if cHi < 0 {
		hiAt = vlo
	}
	lo, hi := d.Lo.Subst(v, loAt), d.Hi.Subst(v, hiAt)
	step := d.Step
	if d.Lo.Equal(d.Hi) && cLo == cHi {
		// A point dimension indexed by the loop: stride follows the
		// loop step and coefficient.
		step = abs(cLo) * vstep
		if step == 0 {
			step = 1
		}
	} else {
		// Already a range: expansion makes it denser; a unit stride
		// hull is the safe single-descriptor approximation.
		step = 1
	}
	return asd.SymDim{Lo: lo, Hi: hi, Step: step}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// BytesAt estimates the per-processor message volume in bytes when the
// entry is placed at the given level. Unknown sizes return ok=false;
// the caller then applies the paper's rule of thumb (NNC and
// reductions are assumed combinable).
func (e *Entry) BytesAt(a *Analysis, level int) (int, bool) {
	li := e.at(level)
	return li.bytes, li.bytesOK
}

// BytesForSection estimates the per-processor message volume for an
// explicit section. BytesAt reads it, computed once, for SectionAt's.
func (e *Entry) BytesForSection(a *Analysis, sec asd.SymSection) (int, bool) {
	arr := a.Unit.Arrays[e.Array]
	if arr == nil {
		return 0, false
	}
	switch e.Kind {
	case KindReduce:
		// The global combine moves one partial result per reduction.
		return arr.ElemBytes(), true
	case KindShift:
		// Ghost strip: the section's rows inside the partition-boundary
		// bands of the shifted grid dim (at most Width per boundary)
		// times the local extent of every other dimension.
		bytes := a.stripRows(e, arr, sec) * arr.ElemBytes()
		for di, d := range sec.Dims {
			if a.gridDimOfArrayDim(arr, di) == e.Map.GridDim && arr.Dist != nil && arr.Dist.Dims[di].Kind != 0 {
				continue // the shifted dimension contributes the strip rows
			}
			n, ok := d.Count()
			if !ok {
				return 0, false
			}
			// A distributed dimension contributes only its local part.
			if arr.Dist != nil && arr.Dist.Dims[di].Kind != 0 {
				g := arr.Dist.Grid.Shape[arr.Dist.Dims[di].GridDim]
				n = (n + g - 1) / g
			}
			if n < 1 {
				n = 1
			}
			bytes *= n
		}
		return bytes, true
	default:
		n, ok := sec.NumElems()
		if !ok {
			return 0, false
		}
		return n * arr.ElemBytes(), true
	}
}

// stripRows counts the shifted-dimension rows one exchange message
// carries: the average, over neighbour pairs, of the section's
// intersection with each partition-boundary band. With a full-extent
// section this is exactly Map.Width (the classic ghost strip); a
// section that stays clear of the boundaries contributes nothing.
// Symbolic bounds fall back to Width.
func (a *Analysis) stripRows(e *Entry, arr *sem.Array, sec asd.SymSection) int {
	// Find the array dim mapped to the shifted grid dim.
	ad := -1
	for k := range arr.Lo {
		if a.gridDimOfArrayDim(arr, k) == e.Map.GridDim {
			ad = k
			break
		}
	}
	if ad < 0 || ad >= len(sec.Dims) || arr.Dist == nil {
		return e.Map.Width
	}
	lo, ok1 := sec.Dims[ad].Lo.IsConst()
	hi, ok2 := sec.Dims[ad].Hi.IsConst()
	if !ok1 || !ok2 {
		return e.Map.Width
	}
	shape := a.Unit.Grid.Shape[e.Map.GridDim]
	if shape <= 1 {
		return 0
	}
	total := 0
	pairs := 0
	for c := 0; c < shape; c++ {
		blo, bhi, ok := arr.Dist.LocalRange(ad, c)
		if !ok {
			continue
		}
		var bandLo, bandHi int
		if e.Map.Sign > 0 {
			if c == 0 {
				continue // no lower neighbour to send to
			}
			bandLo, bandHi = blo, min(blo+e.Map.Width-1, bhi)
		} else {
			if c == shape-1 {
				continue // no upper neighbour
			}
			bandLo, bandHi = max(bhi-e.Map.Width+1, blo), bhi
		}
		pairs++
		l, h := max(bandLo, lo), min(bandHi, hi)
		if l <= h {
			total += h - l + 1
		}
	}
	if pairs == 0 {
		return 0
	}
	// Average rows per neighbour message, rounded up.
	return (total + pairs - 1) / pairs
}

// gridDimOfArrayDim returns the grid dimension an array dimension is
// distributed onto, or −1.
func (a *Analysis) gridDimOfArrayDim(arr *sem.Array, dim int) int {
	if arr.Dist == nil || arr.Dist.Dims[dim].Kind == 0 {
		return -1
	}
	return arr.Dist.Dims[dim].GridDim
}

// buildEntries classifies every SSA use and constructs communication
// entries. Local and replicated accesses yield no entry.
func (a *Analysis) buildEntries() error {
	// Every array use may become an entry: one count of them and their
	// subscripts sizes the slabs the entries, their use lists, sections
	// and offsets are carved from.
	var sl entrySlabs
	nu, nd := 0, 0
	for _, u := range a.SSA.Uses {
		if arr := a.Unit.Arrays[u.Var]; arr != nil {
			nu++
			nd += max(len(u.Ref.Subs), arr.Rank())
		}
	}
	sl.entries, sl.uses = make([]Entry, nu), make([]*ssa.Use, nu)
	sl.dims, sl.offsets = make([]asd.SymDim, nd), make([]int, nu*a.Unit.Grid.Rank())
	a.bytes += heapsize.Slice(sl.entries) + heapsize.Slice(sl.uses) + heapsize.Slice(sl.dims) + heapsize.Slice(sl.offsets)
	a.Entries = make([]*Entry, 0, nu)
	for _, u := range a.SSA.Uses {
		arr := a.Unit.Arrays[u.Var]
		if arr == nil {
			continue
		}
		e, err := a.classifyUse(u, arr, &sl)
		if err != nil {
			return err
		}
		if e == nil {
			continue
		}
		e.ID = len(a.Entries)
		a.Entries = append(a.Entries, e)
	}
	return nil
}

// entrySlabs is what buildEntries carves entries from: the entries,
// their one-use lists, their sections' Dims and their offset vectors.
type entrySlabs struct {
	entries []Entry
	uses    []*ssa.Use
	dims    []asd.SymDim
	offsets []int
}

// entry carves a new entry serving u with section dims.
func (sl *entrySlabs) entry(u *ssa.Use, kind CommKind, m asd.Mapping, dims []asd.SymDim) *Entry {
	e := &carve(&sl.entries, 1)[0]
	uses := carve(&sl.uses, 1)
	uses[0] = u
	*e = Entry{Array: u.Var, Kind: kind, Uses: uses, Map: m, dims: dims}
	return e
}

// classifyUse determines the communication kind, mapping and symbolic
// section for one use, or nil when the access is local.
func (a *Analysis) classifyUse(u *ssa.Use, arr *sem.Array, sl *entrySlabs) (*Entry, error) {
	dims, err := a.refSection(u.Ref, arr, sl)
	if err != nil {
		return nil, err
	}

	if u.InReduction {
		if arr.Dist == nil {
			return nil, nil // replicated: reduction is local
		}
		return sl.entry(u, KindReduce, asd.Mapping{Kind: asd.MapReduce, GridShape: a.Unit.Grid.Shape}, dims), nil
	}
	if arr.Dist == nil {
		return nil, nil // replicated data is always local
	}

	lhs := u.Stmt.Assign.LHS
	lhsArr := a.Unit.Arrays[lhs.Name]
	if lhsArr == nil || lhsArr.Dist == nil {
		// Scalar or replicated target: every processor evaluates the
		// statement, so the distributed operand must be broadcast.
		sig := fmt.Sprintf("bcast:%s:%v", arr.Dist.String(), subsSignature(a, u.Ref))
		a.bytes += int64(len(sig))
		return sl.entry(u, KindBcast, asd.Mapping{Kind: asd.MapBcast, GridShape: a.Unit.Grid.Shape, Signature: sig}, dims), nil
	}

	// Owner-computes: compare the use's subscript in each distributed
	// dimension against the LHS subscript aligned to the same grid dim.
	offsets := carve(&sl.offsets, a.Unit.Grid.Rank())
	general := false
	ufs, lfs := a.Dep.RefForms(u.Ref), a.Dep.RefForms(lhs)
	for k := range arr.Lo {
		g := a.gridDimOfArrayDim(arr, k)
		if g < 0 {
			continue
		}
		ldim := -1
		for m := range lhsArr.Lo {
			if a.gridDimOfArrayDim(lhsArr, m) == g {
				ldim = m
				break
			}
		}
		if ldim < 0 || len(u.Ref.Subs) == 0 || len(lhs.Subs) == 0 {
			general = true
			break
		}
		// A section subscript has no form, as a non-affine one.
		if !ufs[k].OK || !lfs[ldim].OK {
			general = true
			break
		}
		c, ok := ufs[k].Form.ConstDiff(lfs[ldim].Form)
		if !ok {
			general = true
			break
		}
		// Constant offsets are neighbour strips only under BLOCK; on a
		// CYCLIC dimension every element's neighbour lives on another
		// processor, so the pattern is a general (whole-set) transfer.
		if c != 0 && arr.Dist.Dims[k].Kind != dist.Block {
			general = true
			break
		}
		// The partitionings must agree for the offset to be a uniform
		// neighbour relation.
		if arr.Lo[k] != lhsArr.Lo[ldim] || arr.Hi[k] != lhsArr.Hi[ldim] {
			general = true
			break
		}
		// Offsets reaching past the neighbour's block (including the
		// wrap-around copies of periodic boundary code) are not NNC.
		procs := a.Unit.Grid.Shape[g]
		blockSize := (arr.Hi[k] - arr.Lo[k] + procs) / procs
		if abs(c) >= blockSize {
			general = true
			break
		}
		offsets[g] = c
	}
	if general {
		sig := fmt.Sprintf("gen:%s->%s:%v", arr.Dist.String(), lhsArr.Dist.String(), subsSignature(a, u.Ref))
		a.bytes += int64(len(sig))
		return sl.entry(u, KindGeneral, asd.Mapping{Kind: asd.MapGeneral, GridShape: a.Unit.Grid.Shape, Signature: sig}, dims), nil
	}
	allZero := true
	for _, c := range offsets {
		if c != 0 {
			allZero = false
		}
	}
	if allZero {
		return nil, nil // perfectly aligned: local access
	}
	e := sl.entry(u, KindShift, asd.Mapping{}, dims)
	e.Offsets = offsets
	// Single-axis shifts get their mapping now; diagonals are
	// coalesced into axis exchanges by coalesceDiagonals.
	nz := 0
	axis := 0
	for g, c := range offsets {
		if c != 0 {
			nz++
			axis = g
		}
	}
	if nz == 1 {
		e.Map = shiftMapping(a.Unit.Grid.Shape, axis, offsets[axis])
	}
	return e, nil
}

func shiftMapping(gridShape []int, gridDim, offset int) asd.Mapping {
	sign := 1
	if offset < 0 {
		sign = -1
	}
	return asd.Mapping{
		Kind:      asd.MapShift,
		GridShape: gridShape,
		GridDim:   gridDim,
		Sign:      sign,
		Width:     abs(offset),
	}
}

// refSection builds the symbolic section of a reference, in Dims carved
// from the slab.
func (a *Analysis) refSection(r *ast.Ref, arr *sem.Array, sl *entrySlabs) ([]asd.SymDim, error) {
	if len(r.Subs) == 0 {
		dims := carve(&sl.dims, arr.Rank())
		for i := range dims {
			dims[i] = asd.ConstDim(arr.Lo[i], arr.Hi[i], 1)
		}
		return dims, nil
	}
	dims := carve(&sl.dims, len(r.Subs))
	forms := a.Dep.RefForms(r)
	for i, sub := range r.Subs {
		if sub.Kind == ast.SubExpr {
			if !forms[i].OK {
				// Non-affine subscript: conservatively the whole dim.
				dims[i] = asd.ConstDim(arr.Lo[i], arr.Hi[i], 1)
				continue
			}
			dims[i] = asd.Point(forms[i].Form)
			continue
		}
		lo, hi, step := arr.Lo[i], arr.Hi[i], 1
		var err error
		if sub.Lo != nil {
			lo, err = a.Unit.EvalInt(sub.Lo)
			if err != nil {
				return nil, err
			}
		}
		if sub.Hi != nil {
			hi, err = a.Unit.EvalInt(sub.Hi)
			if err != nil {
				return nil, err
			}
		}
		if sub.Step != nil {
			step, err = a.Unit.EvalInt(sub.Step)
			if err != nil {
				return nil, err
			}
		}
		dims[i] = asd.ConstDim(lo, hi, step)
	}
	return dims, nil
}

// subsSignature canonicalizes subscripts for mapping signatures.
func subsSignature(a *Analysis, r *ast.Ref) string {
	var parts []string
	forms := a.Dep.RefForms(r)
	for i, sub := range r.Subs {
		if sub.Kind == ast.SubRange {
			parts = append(parts, ":")
			continue
		}
		if forms[i].OK {
			// Canonicalize loop variables positionally so that
			// different nests with the same shape compare equal.
			parts = append(parts, canonForm(forms[i].Form))
		} else {
			parts = append(parts, ast.ExprString(sub.X))
		}
	}
	return strings.Join(parts, ",")
}

func canonForm(f lin.Form) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(f.Const))
	for i, t := range f.Terms {
		b.WriteByte('+')
		b.WriteString(strconv.Itoa(t.Coef))
		b.WriteString("*v")
		b.WriteString(strconv.Itoa(i))
	}
	return b.String()
}
