// Package runtime is the message-passing runtime of the simulated
// distributed-memory machine. It provides per-processor memories for
// block/cyclic-distributed arrays with validity tracking (an element a
// processor does not own is readable only after a communication
// operation delivered it — reading a stale copy is an error, which is
// how the test suite proves that a communication placement is
// sufficient), the communication operations the compiler emits (ghost
// exchange for NNC, broadcast, general gather, reduction accounting),
// and a ledger charging every operation to the machine cost model.
package runtime

import (
	"fmt"

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

// Memory is the distributed memory: every processor holds a full-size
// image of each distributed array, but only owned or delivered
// elements are valid. Replicated arrays are stored once.
type Memory struct {
	Unit *sem.Unit
	P    int

	views map[string]*ArrayMem
}

// ArrayMem is the resolved per-array view of a Memory: the data and
// validity planes, strides and distribution of one array, with no
// string-keyed lookups on the access path. The interpreter's inner
// loops run on these views; per-processor rows are independent
// allocations, so shards working on disjoint processor ranges never
// share cache lines.
type ArrayMem struct {
	Name    string
	Arr     *sem.Array
	Dist    *dist.Dist // nil for replicated arrays (single row 0)
	Strides []int
	// Data[p][off] and Valid[p][off] are processor p's copy of the
	// element at flat offset off (row 0 only for replicated arrays).
	Data  [][]float64
	Valid [][]bool
}

// NewMemory allocates memories for all arrays of the unit.
func NewMemory(u *sem.Unit, p int) *Memory {
	m := &Memory{
		Unit:  u,
		P:     p,
		views: map[string]*ArrayMem{},
	}
	for name, arr := range u.Arrays {
		size := arr.Size()
		strides := make([]int, arr.Rank())
		s := 1
		for i := arr.Rank() - 1; i >= 0; i-- {
			strides[i] = s
			s *= arr.Hi[i] - arr.Lo[i] + 1
		}
		copies := p
		if arr.Dist == nil {
			copies = 1
		}
		am := &ArrayMem{
			Name:    name,
			Arr:     arr,
			Dist:    arr.Dist,
			Strides: strides,
			Data:    make([][]float64, copies),
			Valid:   make([][]bool, copies),
		}
		for c := 0; c < copies; c++ {
			am.Data[c] = make([]float64, size)
			am.Valid[c] = make([]bool, size)
		}
		m.views[name] = am
		m.initValidity(am)
	}
	return m
}

// initValidity marks the owned (or replicated) elements of one array
// valid; everything starts at value zero.
func (m *Memory) initValidity(am *ArrayMem) {
	arr := am.Arr
	if arr.Dist == nil {
		for i := range am.Valid[0] {
			am.Valid[0][i] = true
		}
		return
	}
	coords := make([]int, arr.Dist.Grid.Rank())
	m.forEachIndex(arr, func(idx []int) {
		o := am.OwnerInto(idx, coords)
		am.Valid[o][am.Offset(idx)] = true
	})
}

// Reset restores the memory image to its just-constructed state —
// every value zero, validity back to the ownership pattern — reusing
// the existing rows so repeated native runs do not allocate.
func (m *Memory) Reset() {
	for _, am := range m.views {
		for c := range am.Data {
			clear(am.Data[c])
			clear(am.Valid[c])
		}
		m.initValidity(am)
	}
}

// View returns the resolved per-array view, panicking on unknown
// arrays (callers pass names from the compiled unit).
func (m *Memory) View(name string) *ArrayMem {
	am := m.views[name]
	if am == nil {
		panic(fmt.Sprintf("runtime: unknown array %q", name))
	}
	return am
}

// Offset maps an index vector to the flat row-major offset, panicking
// when the index lies outside the declared bounds.
func (am *ArrayMem) Offset(idx []int) int {
	arr := am.Arr
	off := 0
	for i, x := range idx {
		if x < arr.Lo[i] || x > arr.Hi[i] {
			panic(fmt.Sprintf("runtime: %s%v out of bounds", am.Name, idx))
		}
		off += (x - arr.Lo[i]) * am.Strides[i]
	}
	return off
}

// OwnerInto computes the owning processor of an element, reusing the
// caller's grid-coordinate buffer (len = grid rank) to avoid the
// per-element allocation of dist.Owner on hot paths.
func (am *ArrayMem) OwnerInto(idx, coords []int) int {
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
// has been written by its owner, whatever the order of the writes.
// Whole row segments are cleared at once wherever ownership is constant
// along the last dimension. idx (len >= array rank) and coords (len >=
// grid rank) are caller scratch.
func (am *ArrayMem) InvalidateBox(p int, lo, hi, idx, coords []int) {
	if am.Dist == nil {
		return
	}
	for k := range lo {
		if lo[k] > hi[k] {
			return
		}
	}
	d := am.Dist
	coords = d.Grid.CoordsInto(p, coords)
	valid := am.Valid[p]
	last := len(lo) - 1
	lastKind, lastCoord := d.Dims[last].Kind, 0
	if lastKind != dist.Star {
		lastCoord = coords[d.Dims[last].GridDim]
	}
	idx = idx[:len(lo)]
	copy(idx, lo)
	for {
		owned := true
		base := -am.Arr.Lo[last]
		for k := 0; k < last; k++ {
			base += (idx[k] - am.Arr.Lo[k]) * am.Strides[k]
			if dd := d.Dims[k]; owned && dd.Kind != dist.Star {
				owned = d.OwnerDim(k, idx[k]) == coords[dd.GridDim]
			}
		}
		row := valid[base+lo[last] : base+hi[last]+1]
		switch {
		case !owned:
			clear(row)
		case lastKind == dist.Block:
			l, h, ok := d.LocalRange(last, lastCoord)
			if !ok {
				clear(row)
				break
			}
			if l > lo[last] {
				clear(row[:min(l, hi[last]+1)-lo[last]])
			}
			if h < hi[last] {
				clear(row[max(h+1, lo[last])-lo[last]:])
			}
		case lastKind == dist.Cyclic:
			for x := lo[last]; x <= hi[last]; x++ {
				if d.OwnerDim(last, x) != lastCoord {
					row[x-lo[last]] = false
				}
			}
		}
		k := last - 1
		for k >= 0 {
			idx[k]++
			if idx[k] <= hi[k] {
				break
			}
			idx[k] = lo[k]
			k--
		}
		if k < 0 {
			return
		}
	}
}

func (m *Memory) forEachIndex(arr *sem.Array, f func(idx []int)) {
	idx := make([]int, arr.Rank())
	copy(idx, arr.Lo)
	for {
		f(idx)
		k := arr.Rank() - 1
		for k >= 0 {
			idx[k]++
			if idx[k] <= arr.Hi[k] {
				break
			}
			idx[k] = arr.Lo[k]
			k--
		}
		if k < 0 {
			return
		}
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
	arr := m.Unit.Arrays[name]
	am := m.View(name)
	out := make([]float64, arr.Size())
	m.forEachIndex(arr, func(idx []int) {
		out[am.Offset(idx)] = m.ReadOwner(name, idx)
	})
	return out
}

// ---------------------------------------------------------------------
// Communication operations

// ShiftArrayDim returns the array dimension mapped to the given grid
// dimension (the axis a shift along gridDim moves data over), or -1
// when the array is not distributed along it.
func (am *ArrayMem) ShiftArrayDim(gridDim int) int {
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

// Shift performs a ghost exchange for one array section along one
// grid dimension: every processor sends the strip of width elements at
// its sign-side block boundary — including ghost copies it received in
// earlier exchanges, which is how diagonal data reaches its corner in
// the classic two-phase augmented exchange — to the neighbouring
// processor opposite the data movement. The strip spans the
// receiver's local region plus a ghost margin in the other dimensions
// (Zima-style overlap regions). It returns per-(src,dst) byte counts
// which the caller charges as one message per pair (that is the whole
// point of combining).
func (m *Memory) Shift(name string, sec section.Section, gridDim, sign, width int) map[[2]int]int {
	return m.ShiftRange(name, sec, gridDim, sign, width, 0, m.P)
}

// ShiftRange is Shift restricted to deliveries whose receiving
// processor lies in [dstLo, dstHi). For a given element the sending
// grid row and the receiving grid row are distinct, and each receiver
// belongs to exactly one range, so shards running ShiftRange over
// disjoint ranges concurrently never write the same processor row and
// never read a row another shard writes; the per-pair byte maps they
// return are disjoint and merge into exactly the full-Shift map.
func (m *Memory) ShiftRange(name string, sec section.Section, gridDim, sign, width, dstLo, dstHi int) map[[2]int]int {
	am := m.View(name)
	arr := am.Arr
	if am.Dist == nil {
		return nil
	}
	ad := am.ShiftArrayDim(gridDim)
	if ad < 0 {
		return nil
	}
	grid := am.Dist.Grid
	shape := grid.Shape[gridDim]
	elemBytes := arr.ElemBytes()
	margin := width // overlap allowance in the other dimensions
	// Changing only the gridDim coordinate moves the linear pid by a
	// fixed stride, so neighbours are computed without coordinate
	// round-trips; coordinates themselves are resolved once per call.
	gridStride := 1
	for i := gridDim + 1; i < grid.Rank(); i++ {
		gridStride *= grid.Shape[i]
	}
	coordsOf := make([][]int, m.P)
	for p := 0; p < m.P; p++ {
		coordsOf[p] = grid.Coords(p)
	}
	pairs := map[[2]int]int{}
	sec.Elems(func(idx []int) bool {
		x := idx[ad]
		srcCoord := am.Dist.OwnerDim(ad, x)
		lo, hi, ok := am.Dist.LocalRange(ad, srcCoord)
		if !ok {
			return true
		}
		inStrip := false
		if sign > 0 {
			inStrip = x >= lo && x < lo+width
		} else {
			inStrip = x <= hi && x > hi-width
		}
		if !inStrip {
			return true
		}
		dstCoord := srcCoord - sign
		if dstCoord < 0 || dstCoord >= shape {
			return true // non-periodic boundary
		}
		// The element travels between every (src,dst) pair that agrees
		// on the other grid coordinates, provided src holds a current
		// copy (its own or a previously delivered ghost) and dst's
		// extended local region covers the element.
		off := am.Offset(idx)
		for src := 0; src < m.P; src++ {
			if coordsOf[src][gridDim] != srcCoord {
				continue
			}
			dst := src - sign*gridStride
			if dst < dstLo || dst >= dstHi {
				continue
			}
			if !am.Valid[src][off] {
				continue
			}
			if !inExtendedRegion(arr, coordsOf[dst], idx, ad, margin) {
				continue
			}
			// The strip is sent unconditionally — a compiled
			// exchange does not know what the receiver already
			// holds — so bytes are charged even for re-deliveries.
			am.Data[dst][off] = am.Data[src][off]
			am.Valid[dst][off] = true
			pairs[[2]int{src, dst}] += elemBytes
		}
		return true
	})
	return pairs
}

// inExtendedRegion reports whether an element lies within a
// processor's local block extended by the ghost margin in every
// distributed dimension other than ad — the receiver-side filter of a
// ghost exchange.
func inExtendedRegion(arr *sem.Array, coords []int, idx []int, ad, margin int) bool {
	for k := range arr.Lo {
		if k == ad || arr.Dist.Dims[k].Kind == 0 {
			continue
		}
		g := arr.Dist.Dims[k].GridDim
		lo, hi, ok := arr.Dist.LocalRange(k, coords[g])
		if !ok {
			return false
		}
		if idx[k] < lo-margin || idx[k] > hi+margin {
			return false
		}
	}
	return true
}

// Broadcast delivers a section from its owners to every processor.
func (m *Memory) Broadcast(name string, sec section.Section) int {
	return m.BroadcastRange(name, sec, 0, m.P)
}

// BroadcastRange delivers a section from its owners to the processors
// in [dstLo, dstHi). The returned byte count is that of the full
// section payload regardless of the range, so concurrent shards each
// observe the same (chargeable) figure. An element's owner row is
// never written by any range (owners skip themselves), so disjoint
// ranges broadcast concurrently without data races.
func (m *Memory) BroadcastRange(name string, sec section.Section, dstLo, dstHi int) int {
	am := m.View(name)
	if am.Dist == nil {
		return 0
	}
	elemBytes := am.Arr.ElemBytes()
	coords := make([]int, am.Dist.Grid.Rank())
	bytes := 0
	sec.Elems(func(idx []int) bool {
		off := am.Offset(idx)
		o := am.OwnerInto(idx, coords)
		v := am.Data[o][off]
		for p := dstLo; p < dstHi; p++ {
			if p != o {
				am.Data[p][off] = v
				am.Valid[p][off] = true
			}
		}
		bytes += elemBytes
		return true
	})
	return bytes
}

// SumSection computes the global sum of a section from owner values
// and returns the per-processor owned element counts for CPU
// accounting.
func (m *Memory) SumSection(name string, sec section.Section) (float64, []int) {
	am := m.View(name)
	counts := make([]int, m.P)
	total := 0.0
	if am.Dist == nil {
		sec.Elems(func(idx []int) bool {
			total += am.Data[0][am.Offset(idx)]
			counts[0]++
			return true
		})
		return total, counts
	}
	coords := make([]int, am.Dist.Grid.Rank())
	sec.Elems(func(idx []int) bool {
		o := am.OwnerInto(idx, coords)
		total += am.Data[o][am.Offset(idx)]
		counts[o]++
		return true
	})
	return total, counts
}
