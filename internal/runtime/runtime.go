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

// Layout is the immutable half of a distributed memory: the strides and
// ownership tables of every array of a unit on P processors, a function
// of (Unit, P). Every Memory made under it shares it, read-only, with the
// lowered program (package plan), which holds layouts, never storage.
type Layout struct {
	Unit *sem.Unit
	P    int
	// Arrays lists the arrays in declaration order: Arrays[l.Slot] == l.
	Arrays []*ArrayLayout
	// MaxRank is the largest array rank, at least 1: an index vector's size.
	MaxRank int
	byName  map[string]*ArrayLayout
}

// ArrayLayout is the geometry of one array: bounds, strides, distribution
// and the ownership tables (see geometry.go). own[k][x-Lo[k]] is what
// index x of dimension k contributes to the owner's linear id — the
// owning grid coordinate times its grid stride, 0 on a collapsed
// dimension — so an element's owner is the sum over its subscripts.
// runEnd[i], along the last dimension, is the last position of the run of
// equal ownership that holds position i. box is every processor's owned
// box (nil for replicated arrays).
type ArrayLayout struct {
	Name    string
	Arr     *sem.Array
	Dist    *dist.Dist // nil for replicated arrays (single row 0)
	Strides []int
	Slot    int

	own    [][]int
	runEnd []int
	box    []int
	whole  section.Section
}

// Memory is the distributed memory: every processor holds a full-size
// image of each distributed array, but only owned or delivered
// elements are valid. Replicated arrays are stored once.
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
	// element at flat offset off (row 0 only for replicated arrays).
	Data  [][]float64
	Valid [][]bool
	// hull, touched: every processor's ghost hull and touched box, laid
	// out as the layout's box (empty for replicated arrays).
	hull, touched []int
}

// NewLayout builds the layout of the unit's arrays on p processors.
func NewLayout(u *sem.Unit, p int) *Layout {
	l := &Layout{Unit: u, P: p, MaxRank: 1, Arrays: make([]*ArrayLayout, 0, len(u.ArrayNames)), byName: make(map[string]*ArrayLayout, len(u.ArrayNames))}
	for slot, name := range u.ArrayNames {
		arr := u.Arrays[name]
		al := &ArrayLayout{Name: name, Arr: arr, Dist: arr.Dist, Strides: make([]int, arr.Rank()), Slot: slot, whole: section.Whole(arr.Lo, arr.Hi)}
		s := 1
		for i := arr.Rank() - 1; i >= 0; i-- {
			al.Strides[i] = s
			s *= arr.Hi[i] - arr.Lo[i] + 1
		}
		al.initGeometry(p)
		l.Arrays, l.byName[name], l.MaxRank = append(l.Arrays, al), al, max(l.MaxRank, arr.Rank())
	}
	return l
}

// Array returns the layout of a declared array, nil for any other name.
func (l *Layout) Array(name string) *ArrayLayout { return l.byName[name] }

// NewMemory allocates memories for all arrays of the unit.
func NewMemory(u *sem.Unit, p int) *Memory { return NewLayout(u, p).NewMemory() }

// NewMemory allocates one more image under the layout, sharing its tables.
func (l *Layout) NewMemory() *Memory {
	m := &Memory{Unit: l.Unit, P: l.P, Layout: l, Arrays: make([]*ArrayMem, len(l.Arrays))}
	for slot, al := range l.Arrays {
		size, copies := al.Arr.Size(), l.P
		if al.Dist == nil {
			copies = 1
		}
		am := &ArrayMem{ArrayLayout: al, Data: make([][]float64, copies), Valid: make([][]bool, copies)}
		for c := 0; c < copies; c++ {
			am.Data[c] = make([]float64, size)
			am.Valid[c] = make([]bool, size)
		}
		ints := make([]int, 2*len(al.box))
		am.touched, am.hull = ints[:len(al.box)], ints[len(al.box):]
		am.emptyHulls()
		m.Arrays[slot] = am
	}
	m.sc = NewScratch(l.MaxRank)
	m.initValidity()
	return m
}

// initValidity marks the owned (or replicated) elements of every array
// valid, a row segment of the owner's box at a time; everything starts
// at value zero.
func (m *Memory) initValidity() {
	for _, am := range m.Arrays {
		am.OwnerRuns(am.whole, m.sc, func(o, off, n int) {
			setValid(am.Valid[o][off : off+n])
		})
	}
}

func setValid(row []bool) {
	for i := range row {
		row[i] = true
	}
}

// Reset restores the memory image to its just-constructed state —
// every value zero, validity back to the ownership pattern, no ghosts —
// reusing the existing rows so repeated native runs do not allocate. A
// processor's plane differs from a new one's inside its touched box only,
// so that is what is cleared: the blocks and their halos, not P arrays.
func (m *Memory) Reset() {
	for _, am := range m.Arrays {
		for p := range am.Data {
			data, valid, box := am.Data[p], am.Valid[p], am.whole
			if am.Dist != nil {
				box.Dims = m.sc.dims[:len(am.Strides)]
				for k, d := range am.whole.Dims {
					t := am.touched[2*(p*len(box.Dims)+k):]
					box.Dims[k] = section.Dim{Lo: max(t[0], d.Lo), Hi: min(t[1], d.Hi), Step: 1}
				}
			}
			am.walk(box, m.sc.idx, false, func(_, off, n int) {
				clear(data[off : off+n])
				clear(valid[off : off+n])
			})
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

// Offset maps an index vector to the flat row-major offset, panicking
// when the index lies outside the declared bounds.
func (am *ArrayLayout) Offset(idx []int) int {
	arr := am.Arr
	off := 0
	for i, x := range idx {
		if x < arr.Lo[i] || x > arr.Hi[i] {
			// Unreachable from input: the lowered program computes offsets
			// in plan's ArrayRef.Offset, which returns a positioned error.
			panic(fmt.Sprintf("runtime: %s%v out of bounds", am.Name, idx))
		}
		off += (x - arr.Lo[i]) * am.Strides[i]
	}
	return off
}

// OwnerInto computes the owning processor of an element, reusing the
// caller's grid-coordinate buffer (len = grid rank) to avoid the
// per-element allocation of dist.Owner on hot paths.
func (am *ArrayLayout) OwnerInto(idx, coords []int) int {
	if am.Dist == nil {
		return 0
	}
	for i := range coords {
		coords[i] = 0
	}
	for i, dd := range am.Dist.Dims {
		if dd.Kind == dist.Star {
			continue
		}
		coords[dd.GridDim] = am.Dist.OwnerDim(i, idx[i])
	}
	return am.Dist.Grid.PID(coords)
}

// ReadAt returns processor proc's view of the element at offset off,
// failing on stale copies (idx is only used for the error message).
func (am *ArrayMem) ReadAt(proc, off int, idx []int) (float64, error) {
	s := proc
	if am.Dist == nil {
		s = 0
	}
	if !am.Valid[s][off] {
		return 0, &StaleReadError{Proc: proc, Array: am.Name, Index: append([]int(nil), idx...)}
	}
	return am.Data[s][off], nil
}

// StoreOwner writes the element at off into the owner's row and marks
// it valid. In a sharded run only the owner's shard calls this.
func (am *ArrayMem) StoreOwner(off, owner int, v float64) {
	s := owner
	if am.Dist == nil {
		s = 0
	}
	am.Data[s][off] = v
	am.Valid[s][off] = true
}

// InvalidateRange clears the validity of processors [lo, hi) except
// the owner — the range-scoped half of the killing write semantics
// that make stale-read detection sound. Replicated arrays have a
// single always-valid row, so there is nothing to invalidate.
func (am *ArrayMem) InvalidateRange(off, owner, lo, hi int) {
	if am.Dist == nil {
		return
	}
	for p := lo; p < hi; p++ {
		if p != owner {
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
	blo, bhi, valid := sc.lo[:rank], sc.hi[:rank], am.Valid[p]
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
				am.rows(blo, bhi, sc.idx, func(base int) { clear(valid[base : base+n]) })
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
// the flat offset of a row's first element, stepped by the strides from
// one row to the next; idx is scratch.
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

// Owner returns the owning processor of an element (0 for replicated
// arrays).
func (m *Memory) Owner(name string, idx []int) int {
	am := m.View(name)
	if am.Dist == nil {
		return 0
	}
	return am.Dist.Owner(idx)
}

// Read returns a processor's view of an element, failing on stale
// copies.
func (m *Memory) Read(proc int, name string, idx []int) (float64, error) {
	am := m.View(name)
	return am.ReadAt(proc, am.Offset(idx), idx)
}

// ReadOwner returns the canonical (owner's) value of an element.
func (m *Memory) ReadOwner(name string, idx []int) float64 {
	am := m.View(name)
	off := am.Offset(idx)
	s := 0
	if am.Dist != nil {
		s = am.Dist.Owner(idx)
	}
	return am.Data[s][off]
}

// Write stores an element at its owner and invalidates every other
// processor's copy (the killing semantics that make stale-read
// detection sound).
func (m *Memory) Write(name string, idx []int, v float64) {
	am := m.View(name)
	off := am.Offset(idx)
	if am.Dist == nil {
		am.Data[0][off] = v
		return
	}
	o := am.Dist.Owner(idx)
	am.StoreOwner(off, o, v)
	am.InvalidateRange(off, o, 0, m.P)
}

// Canonical assembles the owner values of an array into one flat
// row-major slice, for comparison against a sequential reference run.
func (m *Memory) Canonical(name string) []float64 {
	am := m.View(name)
	out := make([]float64, am.Arr.Size())
	am.OwnerRuns(am.whole, NewScratch(am.Arr.Rank()), func(o, off, n int) {
		copy(out[off:off+n], am.Data[o][off:off+n])
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
		for p := 0; am.Dist != nil && p < m.P; p++ {
			lo, hi := am.ghost(p)
			for off, valid := range am.Valid[p] {
				owner, outside := 0, false
				for k, stride := range am.Strides {
					i := off / stride % len(am.own[k])
					owner += am.own[k][i]
					outside = outside || i+am.Arr.Lo[k] < lo[k] || i+am.Arr.Lo[k] > hi[k]
				}
				if valid && outside && owner != p {
					return fmt.Errorf("runtime: processor %d holds %s valid at flat offset %d, outside its ghost hull %v:%v", p, am.Name, off, lo, hi)
				}
				if !valid && owner == p {
					return fmt.Errorf("runtime: processor %d holds its own %s element at flat offset %d invalid", p, am.Name, off)
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
// from off, its ghosts too, is copied into dst's plane, marked and counted.
// Disjoint receivers run concurrently: what one receives, another sends.
func (am *ArrayMem) CopyValid(src, dst, off, n int) int {
	from, held, to, valid := am.Data[src][off:off+n], am.Valid[src][off:off+n], am.Data[dst][off:off+n], am.Valid[dst][off:off+n]
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
// its owners to the processors in [dstLo, dstHi). The returned byte
// count is that of the full section payload regardless of the range,
// so concurrent shards each observe the same (chargeable) figure. An
// element's owner row is never written by any range (owners skip
// themselves), so disjoint ranges broadcast concurrently without data
// races.
func (am *ArrayMem) BroadcastRange(sec section.Section, dstLo, dstHi int, sc *Scratch) int {
	if am.Dist == nil {
		return 0
	}
	elems := 0
	for p := dstLo; p < dstHi; p++ {
		am.Delivered(p, sec)
	}
	am.OwnerRuns(sec, sc, func(o, off, n int) {
		for p := dstLo; p < dstHi; p++ {
			if p != o {
				copy(am.Data[p][off:off+n], am.Data[o][off:off+n])
				setValid(am.Valid[p][off : off+n])
			}
		}
		elems += n
	})
	return elems * am.Arr.ElemBytes()
}

// SumSection computes the global sum of a section (within the declared
// bounds) from owner values, accumulating in section order, and leaves
// in counts (len = processor count) how many of the elements each
// processor owns, for CPU accounting.
func (am *ArrayMem) SumSection(sec section.Section, sc *Scratch, counts []int) float64 {
	clear(counts)
	total := 0.0
	am.OwnerRuns(sec, sc, func(o, off, n int) {
		for _, v := range am.Data[o][off : off+n] {
			total += v
		}
		counts[o] += n
	})
	return total
}
