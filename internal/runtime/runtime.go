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
	"gcao/internal/heapsize"
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

// NewLedger builds a ledger for p processors on the given machine; its
// clocks are carved from one slab.
func NewLedger(p int, m machine.Machine) *Ledger {
	clocks := make([]float64, 2*p)
	return &Ledger{
		P:        p,
		Machine:  m,
		CPU:      clocks[:p:p],
		Net:      clocks[p:],
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

// LedgerView is a range-scoped window onto the CPU clocks of a ledger
// for processors [Lo, Hi). It accumulates in clocks of its own, which its
// maker gives it, so several views over disjoint ranges whose clocks are
// whole cache lines apart accumulate compute time concurrently without
// sharing one; Absorb folds a view back into the master ledger. Only CPU
// time is range-local — network and message accounting happens at
// barriers, under a single writer.
type LedgerView struct {
	Lo, Hi   int
	CPU      []float64
	flopTime float64
}

// View returns a view of processors [lo, hi) that accumulates in cpu, its
// hi-lo clocks, having captured their current values there.
func (l *Ledger) View(lo, hi int, cpu []float64) LedgerView {
	copy(cpu, l.CPU[lo:hi])
	return LedgerView{Lo: lo, Hi: hi, CPU: cpu[: hi-lo : hi-lo], flopTime: l.Machine.FlopTime}
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
	// Arrays lists the arrays in declaration order: &Arrays[l.Slot] == l.
	Arrays []ArrayLayout
	// MaxRank is the largest array rank, at least 1: an index vector's size.
	MaxRank                      int
	margin                       []int
	bytes                        int64
	planes, floats, lists, store int // what NewMemory carves of each slab
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
	size, copies               int // copies: the planes an image holds
	whole                      section.Section
	cyclic                     bool // a dimension is CYCLIC
}

// Memory is the distributed memory: every processor holds a plane of
// each distributed array over its local box — its block and overlap
// region — and only owned or delivered elements are valid (valid.go).
// Replicated arrays are stored once.
type Memory struct {
	Unit   *sem.Unit
	P      int
	Layout *Layout
	// Arrays holds the storage of Layout.Arrays, slot for slot.
	Arrays []ArrayMem
}

// ArrayMem is the storage of one array of a Memory under its layout: the
// data planes and the lists of valid boxes, with no string-keyed lookups
// on the access path. The interpreter's inner loops and the bulk
// operations run on these views; every plane of the image is carved from
// one slab, a cache line apart, so shards working on disjoint processor
// ranges never share cache lines.
type ArrayMem struct {
	*ArrayLayout
	// Data[p][off] is processor p's copy of the element at offset off of
	// its plane (row 0 only for replicated arrays).
	Data [][]float64
	// lists[p] is processor p's list of valid boxes; sent holds every list
	// as of the last Freeze, p's from sentAt[p] (nil for replicated
	// arrays).
	lists        []boxList
	sent, sentAt []int
}

// NewLayout builds the layout of the unit's arrays on p processors. A
// processor's plane of a distributed array covers its local box: its owned
// box widened by margin[slot] on every BLOCK dimension, slot being the
// array's sem.Array.Slot. An array whose margin is negative — any, under a
// nil table — keeps its declared extents. The layout keeps the table. The
// arrays' tables, table headers and sections are carved from one slab each.
func NewLayout(u *sem.Unit, p int, margin []int) *Layout {
	ranks, ints := 0, 0
	for _, name := range u.ArrayNames {
		ranks, ints = ranks+u.Arrays[name].Rank(), ints+tableInts(u.Arrays[name], p)
	}
	l := &Layout{Unit: u, P: p, MaxRank: 1, Arrays: make([]ArrayLayout, len(u.ArrayNames)), margin: margin}
	tables, own, dims := make([]int, ints), make([][]int, ranks), make([]section.Dim, ranks)
	l.bytes = heapsize.Of(l) + heapsize.Slice(l.Arrays) + heapsize.Slice(tables) + heapsize.Slice(own) + heapsize.Slice(dims) + heapsize.Slice(margin)
	for slot, name := range u.ArrayNames {
		arr, r, al := u.Arrays[name], u.Arrays[name].Rank(), &l.Arrays[slot]
		*al = ArrayLayout{Name: name, Arr: arr, Dist: arr.Dist, Slot: slot, own: heapsize.Take(&own, r), copies: 1,
			whole: section.WholeInto(arr.Lo, arr.Hi, heapsize.Take(&dims, r))}
		w := l.marginOf(slot)
		tables, l.MaxRank = al.initGeometry(p, w, w >= 0, tables), max(l.MaxRank, r)
		if arr.Dist != nil {
			al.copies, l.lists, l.store = p, l.lists+p, l.store+listInts(r, p)
		}
		l.planes, l.floats = l.planes+al.copies, l.floats+al.copies*(al.size+8)
	}
	return l
}

// Bytes returns what the layout holds: itself, its arrays' layouts with
// their ownership tables and local boxes, and its table of margins.
func (l *Layout) Bytes() int64 { return l.bytes }

// Fits reports whether images made under o fit l: same unit, P and margins.
func (l *Layout) Fits(o *Layout) bool {
	if l == o {
		return true
	}
	if l.Unit != o.Unit || l.P != o.P {
		return false
	}
	for slot := range l.Arrays {
		if l.marginOf(slot) != o.marginOf(slot) {
			return false
		}
	}
	return true
}

// marginOf returns the margin of the array in slot, -1 for its declared
// extents.
func (l *Layout) marginOf(slot int) int {
	if l.margin == nil {
		return -1
	}
	return l.margin[slot]
}

// Array returns the layout of a declared array, nil for any other name.
func (l *Layout) Array(name string) *ArrayLayout {
	if arr := l.Unit.Arrays[name]; arr != nil {
		return &l.Arrays[arr.Slot]
	}
	return nil
}

// NewMemory allocates memories for all arrays of the unit, at their
// declared extents.
func NewMemory(u *sem.Unit, p int) *Memory { return NewLayout(u, p, nil).NewMemory() }

// NewMemory allocates one more image under the layout, sharing its tables,
// from one slab each of storage, plane headers, planes, lists and list store.
func (l *Layout) NewMemory() *Memory {
	m := &Memory{Unit: l.Unit, P: l.P, Layout: l, Arrays: make([]ArrayMem, len(l.Arrays))}
	data, slab := make([][]float64, l.planes), make([]float64, l.floats)
	boxes, ints := make([]boxList, l.lists), make([]int, l.store)
	for i := range l.Arrays {
		al, am := &l.Arrays[i], &m.Arrays[i]
		am.ArrayLayout, am.Data = al, heapsize.Take(&data, al.copies)
		for c := range am.Data {
			am.Data[c] = heapsize.Take(&slab, al.size+8)[:al.size:al.size] // a 64-byte line between planes
		}
		if al.Dist != nil {
			boxes, ints = am.initLists(l.P, boxes, ints)
		}
	}
	return m
}

// Reset restores the memory image to its just-constructed state —
// every value zero, every processor holding its owned set valid and
// nothing else — reusing the planes and the lists' storage so repeated
// native runs do not allocate.
func (m *Memory) Reset() {
	for i := range m.Arrays {
		am := &m.Arrays[i]
		for p := range am.Data {
			clear(am.Data[p])
		}
		for p := range am.lists {
			am.lists[p].boxes = am.lists[p].boxes[:0]
		}
	}
}

// View returns the resolved per-array view, panicking on unknown
// arrays (callers pass names from the compiled unit).
func (m *Memory) View(name string) *ArrayMem {
	al := m.Layout.Array(name)
	if al == nil {
		// Unreachable from input: every caller passes a name from the
		// compiled unit's ArrayNames; the lowered program binds by slot.
		panic(fmt.Sprintf("runtime: unknown array %q", name))
	}
	return &m.Arrays[al.Slot]
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

// StoreOwner writes the element at off of the owner's plane, which holds
// it valid. In a sharded run only the owner's shard calls this.
func (am *ArrayMem) StoreOwner(off, owner int, v float64) { am.Data[owner][off] = v }

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

// CompareState compares the final states of two runs of one program —
// memory image a with scalars as, against b with bs — bit for bit
// (math.Float64bits equality, NaN equal to any NaN): every array's
// canonical image, then every scalar both runs hold. It returns an error
// naming the first difference, a's value before b's.
func CompareState(a, b *Memory, as, bs map[string]float64) error {
	for _, name := range a.Unit.ArrayNames {
		av, bv := a.Canonical(name), b.Canonical(name)
		if len(av) != len(bv) {
			return fmt.Errorf("array %q size differs: %d vs %d", name, len(av), len(bv))
		}
		for i := range av {
			if !sameBits(av[i], bv[i]) {
				return fmt.Errorf("array %q differs at flat index %d: %v vs %v (bits %016x vs %016x)",
					name, i, av[i], bv[i], math.Float64bits(av[i]), math.Float64bits(bv[i]))
			}
		}
	}
	for k, bv := range bs {
		if av, ok := as[k]; ok && !sameBits(av, bv) {
			return fmt.Errorf("scalar %q differs: %v vs %v (bits %016x vs %016x)",
				k, av, bv, math.Float64bits(av), math.Float64bits(bv))
		}
	}
	return nil
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
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
		data, pb := am.Data[p], am.base[p]
		am.OwnerRuns(part, sc, func(o, off, n int) {
			if o != p {
				copy(data[off-pb:off-pb+n], am.Data[o][off-am.base[o]:])
			}
		})
		am.Deliver(p, part, sc)
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
