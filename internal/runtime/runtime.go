// Package runtime is the message-passing runtime of the simulated
// distributed-memory machine. It provides per-processor memories for
// block/cyclic-distributed arrays with validity tracking (an element a
// processor does not own is readable only after a communication
// operation delivered it — reading a stale copy is an error, which is
// how the test suite proves that a communication placement is
// sufficient), what the compiler's communication is made of (the strips
// of a ghost exchange and their copy, broadcast, general gather,
// reduction accounting), and a ledger charging it to the machine model.
package runtime

import (
	"fmt"
	"maps"
	"math"

	"gcao/internal/dist"
	"gcao/internal/machine"
	"gcao/internal/section"
	"gcao/internal/sem"
)

// Ledger accumulates per-processor time and message statistics.
type Ledger struct {
	P       int
	Machine machine.Machine
	// CPU and Net are per-processor accumulated seconds.
	CPU []float64
	Net []float64
	// MsgsRecv counts point-to-point messages received per processor.
	MsgsRecv []int
	// BytesMoved is the total payload transferred.
	BytesMoved int
	// DynMessages counts all point-to-point messages.
	DynMessages int
	// Barriers counts synchronization events.
	Barriers int
}

// NewLedger builds a ledger for p processors on the given machine.
func NewLedger(p int, m machine.Machine) *Ledger {
	return &Ledger{
		P:        p,
		Machine:  m,
		CPU:      make([]float64, p),
		Net:      make([]float64, p),
		MsgsRecv: make([]int, p),
	}
}

// Barrier synchronizes all processor clocks to the maximum, modeling
// the bulk-synchronous execution the paper measures (overlap
// disabled).
func (l *Ledger) Barrier() {
	l.Barriers++
	maxT := 0.0
	for p := 0; p < l.P; p++ {
		if t := l.CPU[p] + l.Net[p]; t > maxT {
			maxT = t
		}
	}
	for p := 0; p < l.P; p++ {
		slack := maxT - (l.CPU[p] + l.Net[p])
		l.Net[p] += slack // waiting time is charged to the network bar
	}
}

// Message charges one point-to-point message of the given payload from
// src to dst, including packing and unpacking copies.
func (l *Ledger) Message(src, dst, bytes int) {
	m := l.Machine
	l.Net[src] += m.InjectTime(bytes) + m.BcopyTime(bytes)
	l.Net[dst] += m.RecvOverhead + m.Latency + float64(bytes)*m.PerByte + m.BcopyTime(bytes)
	l.MsgsRecv[dst]++
	l.DynMessages++
	l.BytesMoved += bytes
}

// Reduce charges a global combining tree moving the given payload.
func (l *Ledger) Reduce(bytes int) {
	t := l.Machine.ReduceTime(bytes, l.P)
	for p := 0; p < l.P; p++ {
		l.Net[p] += t
	}
	depth := 0
	for n := 1; n < l.P; n *= 2 {
		depth++
	}
	l.DynMessages += depth * 2 // combine down, result back up
	l.BytesMoved += bytes * depth
	for p := 0; p < l.P; p++ {
		l.MsgsRecv[p] += depth
	}
}

// Broadcast charges a binomial-tree broadcast of the payload.
func (l *Ledger) Broadcast(bytes int) {
	depth := 0
	for n := 1; n < l.P; n *= 2 {
		depth++
	}
	t := float64(depth) * l.Machine.MsgTime(bytes)
	for p := 0; p < l.P; p++ {
		l.Net[p] += t
	}
	l.DynMessages += l.P - 1
	l.BytesMoved += bytes * depth
	for p := 0; p < l.P; p++ {
		l.MsgsRecv[p] += depth
	}
}

// Compute charges flop-count floating point operations to a processor.
func (l *Ledger) Compute(proc, flops int) {
	l.CPU[proc] += float64(flops) * l.Machine.FlopTime
}

// ElapsedTime returns the bulk-synchronous completion time: the
// maximum per-processor clock.
func (l *Ledger) ElapsedTime() float64 {
	maxT := 0.0
	for p := 0; p < l.P; p++ {
		if t := l.CPU[p] + l.Net[p]; t > maxT {
			maxT = t
		}
	}
	return maxT
}

// CPUTime and NetTime return the maximum per-processor component
// clocks, the two segments of the paper's normalized bars.
func (l *Ledger) CPUTime() float64 {
	maxT := 0.0
	for p := 0; p < l.P; p++ {
		if l.CPU[p] > maxT {
			maxT = l.CPU[p]
		}
	}
	return maxT
}

func (l *Ledger) NetTime() float64 {
	maxT := 0.0
	for p := 0; p < l.P; p++ {
		if l.Net[p] > maxT {
			maxT = l.Net[p]
		}
	}
	return maxT
}

// LedgerView is a range-scoped window onto the CPU clocks of a ledger
// for processors [Lo, Hi). It owns an independent backing slice, so
// several views over disjoint ranges can accumulate compute time
// concurrently without sharing cache lines; Absorb folds a view back
// into the master ledger. Only CPU time is range-local — network and
// message accounting happens at barriers, under a single writer.
type LedgerView struct {
	Lo, Hi   int
	CPU      []float64
	flopTime float64
}

// View captures the current CPU clocks of processors [lo, hi) in an
// independent range-scoped accumulator.
func (l *Ledger) View(lo, hi int) *LedgerView {
	v := &LedgerView{Lo: lo, Hi: hi, CPU: make([]float64, hi-lo), flopTime: l.Machine.FlopTime}
	copy(v.CPU, l.CPU[lo:hi])
	return v
}

// Compute charges flop-count floating point operations to a processor
// of the view's range.
func (v *LedgerView) Compute(proc, flops int) {
	v.CPU[proc-v.Lo] += float64(flops) * v.flopTime
}

// Absorb copies a view's CPU clocks back into the master ledger. The
// view stays valid: CPU clocks only ever grow through the view, so
// absorbing is an idempotent snapshot, not a reset.
func (l *Ledger) Absorb(v *LedgerView) {
	copy(l.CPU[v.Lo:v.Hi], v.CPU)
}

// StaleReadError reports a processor reading an element it neither
// owns nor received — evidence of insufficient communication.
type StaleReadError struct {
	Proc  int
	Array string
	Index []int
}

func (e *StaleReadError) Error() string {
	return fmt.Sprintf("runtime: processor %d read stale %s%v (element not owned and never delivered)", e.Proc, e.Array, e.Index)
}

// Layout is the immutable half of a distributed memory: the local boxes,
// strides and ownership tables of every array of a unit on P processors, a
// function of (Unit, P, margins). Every Memory made under it shares it,
// read-only, with the lowered program (package plan), which holds layouts,
// never storage.
type Layout struct {
	Unit *sem.Unit
	P    int
	// Arrays lists the arrays in declaration order: Arrays[l.Slot] == l.
	Arrays []*ArrayLayout
	// MaxRank is the largest array rank, at least 1: an index vector's size.
	MaxRank int
	byName  map[string]*ArrayLayout
	margin  map[string]int
}

// ArrayLayout is the geometry of one array: bounds, strides, distribution,
// local boxes and the ownership tables (see geometry.go). own[k][x-Lo[k]] is
// what index x of dimension k contributes to the owner's linear id — the
// owning grid coordinate times its grid stride, 0 on a collapsed dimension —
// so an element's owner is the sum over its subscripts. runEnd[i], along the
// last dimension, is the last position of the run of equal ownership that
// holds position i. box is every processor's owned box (nil for replicated
// arrays); every local box has the extents ext (size elements), its first
// index at[p*rank+k] and its Base base[p].
type ArrayLayout struct {
	Name string
	Arr  *sem.Array
	Dist *dist.Dist // nil for replicated arrays (single row 0)
	// Strides are the row-major strides of every processor's plane: of the
	// local box, the declared array where it keeps its declared extents.
	Strides []int
	Slot    int

	own                        [][]int
	runEnd, box, ext, at, base []int
	size                       int
	whole                      section.Section
}

// Memory is the distributed memory: every processor holds a plane of
// each distributed array over its local box — its block and overlap
// region — and only owned or delivered elements are valid. Replicated
// arrays are stored once.
type Memory struct {
	Unit   *sem.Unit
	P      int
	Layout *Layout
	// Arrays holds the storage of Layout.Arrays, slot for slot.
	Arrays []*ArrayMem
	sc     *Scratch // Reset's
}

// ArrayMem is the storage of one array of a Memory under its layout: the
// data and validity planes, with no string-keyed lookups on the access
// path. The interpreter's inner loops and the bulk operations run on
// these views; per-processor rows are independent allocations, so shards
// working on disjoint processor ranges never share cache lines.
type ArrayMem struct {
	*ArrayLayout
	// Data[p][off] and Valid[p][off] are processor p's copy of the
	// element at offset off of its plane (row 0 only for replicated arrays).
	Data  [][]float64
	Valid [][]bool
	// hull: every processor's ghost hull, laid out as the layout's box
	// (empty for replicated arrays).
	hull []int
}

// NewLayout builds the layout of the unit's arrays on p processors. A
// processor's plane of a distributed array covers its local box: its owned
// box widened by margin[name] on every BLOCK dimension. An array the map
// does not name — any, under a nil map — keeps its declared extents.
func NewLayout(u *sem.Unit, p int, margin map[string]int) *Layout {
	l := &Layout{Unit: u, P: p, MaxRank: 1, Arrays: make([]*ArrayLayout, 0, len(u.ArrayNames)), byName: make(map[string]*ArrayLayout, len(u.ArrayNames)), margin: margin}
	for slot, name := range u.ArrayNames {
		arr := u.Arrays[name]
		al := &ArrayLayout{Name: name, Arr: arr, Dist: arr.Dist, Slot: slot, whole: section.Whole(arr.Lo, arr.Hi)}
		w, boxed := margin[name]
		al.initGeometry(p, w, boxed)
		l.Arrays, l.byName[name], l.MaxRank = append(l.Arrays, al), al, max(l.MaxRank, arr.Rank())
	}
	return l
}

// Fits reports whether images made under o fit l: same unit, P and margins.
func (l *Layout) Fits(o *Layout) bool {
	return l == o || l.Unit == o.Unit && l.P == o.P && maps.Equal(l.margin, o.margin)
}

// Array returns the layout of a declared array, nil for any other name.
func (l *Layout) Array(name string) *ArrayLayout { return l.byName[name] }

// NewMemory allocates memories for all arrays of the unit, at their
// declared extents.
func NewMemory(u *sem.Unit, p int) *Memory { return NewLayout(u, p, nil).NewMemory() }

// NewMemory allocates one more image under the layout, sharing its tables.
func (l *Layout) NewMemory() *Memory {
	m := &Memory{Unit: l.Unit, P: l.P, Layout: l, Arrays: make([]*ArrayMem, len(l.Arrays))}
	for slot, al := range l.Arrays {
		copies := l.P
		if al.Dist == nil {
			copies = 1
		}
		am := &ArrayMem{ArrayLayout: al, Data: make([][]float64, copies), Valid: make([][]bool, copies), hull: make([]int, len(al.box))}
		for c := 0; c < copies; c++ {
			am.Data[c] = make([]float64, al.size)
			am.Valid[c] = make([]bool, al.size)
		}
		am.emptyHulls()
		m.Arrays[slot] = am
	}
	m.sc = NewScratch(l.MaxRank)
	m.initValidity()
	return m
}

// initValidity marks the owned (or replicated) elements of every array
// valid, an owner run at a time; everything starts at value zero.
func (m *Memory) initValidity() {
	for _, am := range m.Arrays {
		am.OwnerRuns(am.whole, m.sc, func(o, off, n int) {
			valid := am.Valid[o][off-am.base[o]:][:n]
			for i := range valid {
				valid[i] = true
			}
		})
	}
}

// Reset restores the memory image to its just-constructed state —
// every value zero, validity back to the ownership pattern, no ghosts —
// reusing the existing planes so repeated native runs do not allocate.
func (m *Memory) Reset() {
	for _, am := range m.Arrays {
		for p := range am.Data {
			clear(am.Data[p])
			clear(am.Valid[p])
		}
		am.emptyHulls()
	}
	m.initValidity()
}

// View returns the resolved per-array view, panicking on unknown
// arrays (callers pass names from the compiled unit).
func (m *Memory) View(name string) *ArrayMem {
	al := m.Layout.byName[name]
	if al == nil {
		// Unreachable from input: every caller passes a name from the
		// compiled unit's ArrayNames; the lowered program binds by slot.
		panic(fmt.Sprintf("runtime: unknown array %q", name))
	}
	return m.Arrays[al.Slot]
}

// Offset maps an index vector to the element's offset in its owner's
// plane, panicking when the index lies outside the declared bounds.
func (am *ArrayLayout) Offset(idx []int) int {
	off, owner := 0, 0
	for i, x := range idx {
		if x -= am.Arr.Lo[i]; x < 0 || x >= len(am.own[i]) {
			// Unreachable from input: the lowered program computes offsets
			// in plan's ArrayRef.Offset, which returns a positioned error.
			panic(fmt.Sprintf("runtime: %s%v out of bounds", am.Name, idx))
		}
		off, owner = off+x*am.Strides[i], owner+am.own[i][x]
	}
	return off - am.base[owner]
}

// Owner returns the processor owning the element at idx, which must lie
// within the declared bounds (0 for a replicated array).
func (am *ArrayLayout) Owner(idx []int) int {
	owner := 0
	for k, x := range idx {
		owner += am.own[k][x-am.Arr.Lo[k]]
	}
	return owner
}

// OwnerInto is Owner, for callers that pass a grid-coordinate buffer.
func (am *ArrayLayout) OwnerInto(idx, coords []int) int { return am.Owner(idx) }

// StoreOwner writes the element at off of the owner's plane and marks it
// valid. In a sharded run only the owner's shard calls this.
func (am *ArrayMem) StoreOwner(off, owner int, v float64) {
	am.Data[owner][off], am.Valid[owner][off] = v, true
}

// InvalidateRange clears the validity of the element at idx on processors
// [lo, hi) but its owner whose local boxes hold it — the range-scoped half
// of the killing write semantics; a replicated array's row stays valid.
func (am *ArrayMem) InvalidateRange(idx []int, owner, lo, hi int) {
	for p := lo; p < hi && am.Dist != nil; p++ {
		if off, ok := am.Local(p, idx); ok && p != owner {
			am.Valid[p][off] = false
		}
	}
}

// InvalidateBox clears processor p's validity for every element of the
// box [lo, hi] (inclusive, within the declared bounds) that p does not
// own: the state p's plane is left in once every element of the box
// has been written by its owner, whatever the order of the writes. Only
// the part of the box inside p's ghost hull can hold such an element, and
// a box that covers the hull leaves none anywhere. That part less p's
// owned box is at most two slabs per dimension: one dimension after the
// other is narrowed to the owned interval, the part of the box below it
// and the part above it cleared whole. Within the covering range of a
// CYCLIC dimension every index that is not p's — not owned as the range's
// first is — is one more slab.
func (am *ArrayMem) InvalidateBox(p int, lo, hi []int, sc *Scratch) {
	if am.Dist == nil {
		return
	}
	rank, covers := len(lo), true
	blo, bhi, valid, pb := sc.lo[:rank], sc.hi[:rank], am.Valid[p], am.base[p]
	glo, ghi := am.ghost(p)
	for k := range blo {
		if blo[k], bhi[k] = max(lo[k], glo[k]), min(hi[k], ghi[k]); blo[k] > bhi[k] {
			return
		}
		covers = covers && lo[k] <= glo[k] && ghi[k] <= hi[k]
	}
	for k := 0; covers && k < rank; k++ {
		glo[k], ghi[k] = math.MaxInt, math.MinInt
	}
	for k := range blo {
		slab := func(from, to int) {
			if blo[k], bhi[k] = from, to; from <= to {
				n := bhi[rank-1] - blo[rank-1] + 1
				am.rows(blo, bhi, sc.idx, func(base int) { clear(valid[base-pb : base-pb+n]) })
			}
		}
		l, h := blo[k], bhi[k]
		ownLo, ownHi := am.OwnedBox(p, k)
		slab(l, min(ownLo-1, h))
		slab(max(ownHi+1, ownLo, l), h)
		l, h = max(l, ownLo), min(h, ownHi)
		if t, first := am.own[k], am.Arr.Lo[k]; am.Dist.Dims[k].Kind == dist.Cyclic {
			for x := l; x <= h; x++ {
				if t[x-first] != t[ownLo-first] {
					slab(x, x)
				}
			}
		}
		if blo[k], bhi[k] = l, h; l > h {
			return
		}
	}
}

// rows visits the rows of the non-empty box [lo, hi] in order: base is
// the stride space's offset of a row's first element, stepped by the
// strides from one row to the next; idx is scratch.
func (am *ArrayLayout) rows(lo, hi, idx []int, f func(base int)) {
	last := len(lo) - 1
	idx = idx[:last]
	copy(idx, lo)
	base := 0
	for k, x := range lo {
		base += (x - am.Arr.Lo[k]) * am.Strides[k]
	}
	for {
		f(base)
		k := last - 1
		for ; k >= 0 && idx[k] == hi[k]; k-- {
			base -= (hi[k] - lo[k]) * am.Strides[k]
			idx[k] = lo[k]
		}
		if k < 0 {
			return
		}
		idx[k]++
		base += am.Strides[k]
	}
}

// Owner returns the owning processor of an element (0 for replicated arrays).
func (m *Memory) Owner(name string, idx []int) int { return m.View(name).Owner(idx) }

// Read returns a processor's view of an element, failing on stale
// copies.
func (m *Memory) Read(proc int, name string, idx []int) (float64, error) {
	am := m.View(name)
	s := proc % len(am.Data) // a replicated array's one plane is every processor's
	if off, ok := am.Local(s, idx); ok && am.Valid[s][off] {
		return am.Data[s][off], nil
	}
	return 0, &StaleReadError{Proc: proc, Array: am.Name, Index: append([]int(nil), idx...)}
}

// ReadOwner returns the canonical (owner's) value of an element.
func (m *Memory) ReadOwner(name string, idx []int) float64 {
	return m.View(name).Data[m.Owner(name, idx)][m.View(name).Offset(idx)]
}

// Write stores an element at its owner and invalidates every other
// processor's copy (the killing semantics that make stale-read
// detection sound).
func (m *Memory) Write(name string, idx []int, v float64) {
	am := m.View(name)
	am.StoreOwner(am.Offset(idx), am.Owner(idx), v)
	am.InvalidateRange(idx, am.Owner(idx), 0, m.P)
}

// Canonical assembles the owner values of an array into one flat
// row-major slice, for comparison against a sequential reference run.
func (m *Memory) Canonical(name string) []float64 {
	am := m.View(name)
	out, pos := make([]float64, am.Arr.Size()), 0
	am.OwnerRuns(am.whole, NewScratch(am.Arr.Rank()), func(o, off, n int) {
		pos += copy(out[pos:pos+n], am.Data[o][off-am.base[o]:])
	})
	return out
}

// CheckHulls holds the ghost hulls against the planes, for tests and
// verifiers: it returns an error naming the first valid element outside
// the hull of a processor that does not own it, or the first element its
// owner holds invalid — an owner's copy is always current, which is what
// lets a row kernel store without marking.
func (m *Memory) CheckHulls() error {
	for _, am := range m.Arrays {
		idx := make([]int, len(am.Strides))
		for p := 0; am.Dist != nil && p < m.P; p++ {
			lo, hi := am.ghost(p)
			for off, valid := range am.Valid[p] {
				owner, outside := 0, false
				for k, stride := range am.Strides {
					idx[k] = am.at[p*len(idx)+k] + off/stride%am.ext[k]
					owner += am.own[k][idx[k]-am.Arr.Lo[k]]
					outside = outside || idx[k] < lo[k] || idx[k] > hi[k]
				}
				if valid && outside && owner != p {
					return fmt.Errorf("runtime: processor %d holds %s%v valid, outside its ghost hull %v:%v", p, am.Name, idx, lo, hi)
				}
				if !valid && owner == p {
					return fmt.Errorf("runtime: processor %d holds its own %s element %v invalid", p, am.Name, idx)
				}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Communication operations

// ShiftArrayDim returns the array dimension mapped to the given grid
// dimension (the axis a shift along gridDim moves data over), or -1
// when the array is not distributed along it.
func (am *ArrayLayout) ShiftArrayDim(gridDim int) int {
	if am.Dist == nil {
		return -1
	}
	for k := range am.Arr.Lo {
		if am.Dist.Dims[k].Kind != 0 && am.Dist.Dims[k].GridDim == gridDim {
			return k
		}
	}
	return -1
}

// CopyValid delivers one run of a shift's strip (StripRuns; the caller
// grows dst's hull by Delivered): what src holds valid of the n offsets
// of the stride space from off, its ghosts too, is copied into dst's
// plane, marked and counted. Disjoint receivers run concurrently: what one
// receives, another sends.
func (am *ArrayMem) CopyValid(src, dst, off, n int) int {
	s, d := off-am.base[src], off-am.base[dst]
	from, held, to, valid := am.Data[src][s:s+n], am.Valid[src][s:s+n], am.Data[dst][d:d+n], am.Valid[dst][d:d+n]
	moved := 0
	for i, ok := range held {
		if ok {
			to[i], valid[i] = from[i], true
			moved++
		}
	}
	return moved
}

// BroadcastRange delivers a section (within the declared bounds) from
// its owners to the processors in [dstLo, dstHi), each receiving the part
// its local box holds. The returned byte count is that of the full
// section payload regardless of the range, so concurrent shards each
// observe the same (chargeable) figure. An element's owner row is never
// written by any range (owners skip themselves), so disjoint ranges
// broadcast concurrently without data races.
func (am *ArrayMem) BroadcastRange(sec section.Section, dstLo, dstHi int, sc *Scratch) int {
	if am.Dist == nil {
		return 0
	}
	lo, hi := sc.lo[:len(am.Strides)], sc.hi[:len(am.Strides)]
	for p := dstLo; p < dstHi; p++ {
		for k := range lo {
			lo[k], hi[k] = am.LocalBox(p, k)
		}
		part := sec.ClipInto(lo, hi, sc.dims)
		am.Delivered(p, part)
		data, valid, pb := am.Data[p], am.Valid[p], am.base[p]
		am.OwnerRuns(part, sc, func(o, off, n int) {
			if o != p {
				copy(data[off-pb:off-pb+n], am.Data[o][off-am.base[o]:])
				for i := off - pb; i < off-pb+n; i++ {
					valid[i] = true
				}
			}
		})
	}
	return sec.NumElems() * am.Arr.ElemBytes()
}

// SumSection computes the global sum of a section (within the declared
// bounds) from owner values, accumulating in section order, and leaves
// in counts (len = processor count) how many of the elements each
// processor owns, for CPU accounting.
func (am *ArrayMem) SumSection(sec section.Section, sc *Scratch, counts []int) float64 {
	clear(counts)
	total := 0.0
	am.OwnerRuns(sec, sc, func(o, off, n int) {
		for _, v := range am.Data[o][off-am.base[o]:][:n] {
			total += v
		}
		counts[o] += n
	})
	return total
}
