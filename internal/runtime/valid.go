package runtime

import (
	"fmt"
	"slices"

	"gcao/internal/dist"
	"gcao/internal/heapsize"
	"gcao/internal/section"
)

// Validity at box granularity (§4.6's section descriptors, §4.8's overlap
// regions). Processor p holds valid its owned set of a distributed array —
// always: an owner's copy is current — and a short list of boxes in global
// indices, the foreign elements it received since they were last written.
// The list keeps three invariants: its boxes are disjoint, each lies
// inside p's local box, and none holds an element p owns. So whether p
// holds a box valid is a count — the elements of the box p owns plus those
// in each listed box make up its size — and no plane of flags exists.
//
//   - a delivery (CopyValid, BroadcastRange, Deliver, DeliverBits) adds
//     what it delivers less p's owned set — at most two slabs a dimension,
//     one more per foreign index of a CYCLIC dimension's covering range —
//     and less the boxes already listed, at the end of the list, where a
//     piece merges into a box it extends along one dimension;
//   - an invalidation (InvalidateBox, InvalidateRange) subtracts a box:
//     each listed box it meets is replaced by its pieces outside it, at
//     most two a dimension;
//   - Reset empties every list.
//
// A list is 2·rank ints a box, its lower bounds and then its upper bounds,
// carved from one list store per image: 2·rank + 1 boxes a processor, a
// face of its local box each and a delivery before it merges, which no
// Fig. 10(a) routine outgrows (TestValidBoxFragmentation). A list that
// outgrows its share moves to an allocation of its own, which Reset keeps.

// boxList is one processor's list, alone in its cache lines: processors
// on different shards or goroutines write their lists at once.
type boxList struct {
	boxes []int
	most  int // the longest boxes has been
	_     [12]int
}

// listInts returns the ints of the list store initLists carves for p lists
// of an array of rank r: each list's share and a cache line, then sentAt.
func listInts(r, p int) int { return p*(2*r*(2*r+1)+8) + p + 9 }

// initLists carves the processors' lists, a cache line apart, from the
// image's lists and list store, and returns what it leaves of them.
func (am *ArrayMem) initLists(p int, lists []boxList, store []int) ([]boxList, []int) {
	r := len(am.Strides)
	am.lists = heapsize.Take(&lists, p)
	for q := range am.lists {
		am.lists[q].boxes = heapsize.Take(&store, 2*r*(2*r+1)+8)[: 0 : 2*r*(2*r+1)]
	}
	am.sentAt = heapsize.Take(&store, p+9)[: p+1 : p+1]
	return lists, store
}

// keep stores p's list, noting its length when it is the longest yet.
func (am *ArrayMem) keep(p int, l []int) {
	if am.lists[p].boxes = l; len(l) > am.lists[p].most {
		am.lists[p].most = len(l)
	}
}

// Boxes returns processor p's list of valid boxes, for reading only: 2·rank
// ints a box, its lower bounds and then its upper bounds (nil for a
// replicated array).
func (am *ArrayMem) Boxes(p int) []int {
	if am.Dist == nil {
		return nil
	}
	return am.lists[p].boxes
}

// MostBoxes returns the most boxes processor p's list has held since the
// image was made.
func (am *ArrayMem) MostBoxes(p int) int {
	if am.Dist == nil {
		return 0
	}
	return am.lists[p].most / (2 * len(am.Strides))
}

// meets reports whether the box b of a list meets the box [lo, hi].
func meets(b, lo, hi []int) bool {
	r := len(lo)
	for k := range lo {
		if b[k] > hi[k] || b[r+k] < lo[k] {
			return false
		}
	}
	return true
}

// overlap returns how many elements the box b of a list shares with the
// box [lo, hi].
func overlap(b, lo, hi []int) int {
	r, n := len(lo), 1
	for k := range lo {
		w := min(b[r+k], hi[k]) - max(b[k], lo[k]) + 1
		if w <= 0 {
			return 0
		}
		n *= w
	}
	return n
}

// cut replaces box i of the list l by its pieces outside the box [lo, hi],
// which it meets: one dimension after the other, the part below and the
// part above [lo, hi] are cut off the rest of box i, the first in its
// place and the others at the end of the list, and the rest, which lies
// inside [lo, hi] at last, is dropped. The list never holds more boxes
// than it ends with.
func cut(l []int, i int, lo, hi []int) []int {
	r := len(lo)
	var buf [16]int
	rest, at := append(buf[:0], l[i:i+2*r]...), i
	for k := range lo {
		if rest[k] < lo[k] {
			l, at = piece(l, at, rest, r+k, lo[k]-1)
			rest[k] = lo[k]
		}
		if rest[r+k] > hi[k] {
			l, at = piece(l, at, rest, k, hi[k]+1)
			rest[r+k] = hi[k]
		}
	}
	if at == i { // nothing of box i lay outside: the last box takes its place
		last := len(l) - 2*r
		copy(l[i:i+2*r], l[last:])
		return l[:last]
	}
	return l
}

// piece writes the box b with its bound j set to v into the list l: at at,
// when it is not -1, else at the end.
func piece(l []int, at int, b []int, j, v int) ([]int, int) {
	if at < 0 {
		at, l = len(l), append(l, b...)
	}
	copy(l[at:], b)
	l[at+j] = v
	return l, -1
}

// owns returns how many of the indices lo..hi of dimension k processor p
// owns.
func (am *ArrayLayout) owns(p, k, lo, hi int) int {
	ownLo, ownHi := am.OwnedBox(p, k)
	l, h := max(lo, ownLo), min(hi, ownHi)
	if dd := am.Dist.Dims[k]; am.cyclic && dd.Kind == dist.Cyclic && l <= h {
		// p owns every s-th index from ownLo: the first in l..h is l rounded up.
		s := am.Dist.Grid.Shape[dd.GridDim]
		if l = ownLo + (l-ownLo+s-1)/s*s; l > h {
			return 0
		}
		return (h-l)/s + 1
	}
	return max(h-l+1, 0)
}

// ValidAt reports whether processor p holds the element at idx (within the
// declared bounds) valid: it lies in p's local box and p owns it or a box
// of p's list holds it.
func (am *ArrayMem) ValidAt(p int, idx []int) bool {
	if am.Dist == nil {
		return true
	}
	if _, in := am.Local(p, idx); !in {
		return false
	}
	if am.Owner(idx) == p {
		return true
	}
	l, w := am.lists[p].boxes, 2*len(idx)
	for i := 0; i < len(l); i += w {
		if meets(l[i:], idx, idx) {
			return true
		}
	}
	return false
}

// Holds reports whether processor p holds every element of the box
// [lo, hi] (within the declared bounds) valid: the elements of it p owns
// and those in each box of p's list add up to its size.
func (am *ArrayMem) Holds(p int, lo, hi []int) bool {
	return am.Dist == nil || am.holds(p, lo, hi, am.lists[p].boxes)
}

// holds is Holds, with l for p's list.
func (am *ArrayMem) holds(p int, lo, hi, l []int) bool {
	size, held := 1, 1
	for k := range lo {
		if lo[k] > hi[k] {
			return true
		}
		size, held = size*(hi[k]-lo[k]+1), held*am.owns(p, k, lo[k], hi[k])
	}
	for i, w := 0, 2*len(lo); i < len(l) && held < size; i += w {
		held += overlap(l[i:], lo, hi)
	}
	return held == size
}

// ValidPlane materialises processor p's validity over its local box, a
// flag per offset of its plane — for comparing images, never on a run's
// path.
func (am *ArrayMem) ValidPlane(p int) []bool {
	plane, r := make([]bool, am.size), len(am.Strides)
	if am.Dist == nil {
		for i := range plane {
			plane[i] = true
		}
		return plane
	}
	mark := func(_, off, n int) {
		for i := off - am.base[p]; i < off-am.base[p]+n; i++ {
			plane[i] = true
		}
	}
	lo, hi, sc := make([]int, r), make([]int, r), NewScratch(r)
	for k := range lo {
		lo[k], hi[k] = am.LocalBox(p, k)
	}
	am.walk(am.ownedPart(p, section.Whole(lo, hi), sc), sc.idx, false, mark)
	for l, i := am.lists[p].boxes, 0; i < len(l); i += 2 * r {
		am.walk(section.Whole(l[i:i+r], l[i+r:i+2*r]), sc.idx, false, mark)
	}
	return plane
}

// Deliver makes every element of sec (within the declared bounds) that
// processor p's local box holds and p does not own valid on p: the caller
// wrote their values into p's plane. A strided dimension is delivered an
// index at a time.
func (am *ArrayMem) Deliver(p int, sec section.Section, sc *Scratch) {
	if am.Dist == nil || sec.IsEmpty() {
		return
	}
	r := len(sec.Dims)
	lo, hi := sc.box[:r], sc.box[r:2*r]
	for k, d := range sec.Dims {
		if lo[k], hi[k] = d.Lo, d.Hi; d.Step > 1 {
			hi[k] = d.Lo
		}
	}
	for {
		am.add(p, lo, hi, sc)
		k := r - 1
		for ; k >= 0; k-- {
			if d := sec.Dims[k]; d.Step > 1 {
				if lo[k] += d.Step; lo[k] <= d.Hi {
					hi[k] = lo[k]
					break
				}
				lo[k], hi[k] = d.Lo, d.Lo
			}
		}
		if k < 0 {
			return
		}
	}
}

// Bits is a strip's validity bitmap: a bit an element, in the order the
// strip's runs enumerate it.
type Bits []uint64

// Set sets the n bits from bit from.
func (b Bits) Set(from, n int) {
	for i := from; i < from+n; {
		c := min(64-i%64, from+n-i)
		b[i/64] |= (1<<c - 1) << (i % 64)
		i += c
	}
}

// All reports whether the n bits from bit from are set.
func (b Bits) All(from, n int) bool {
	for i := from; i < from+n; {
		c := min(64-i%64, from+n-i)
		if mask := uint64(1<<c-1) << (i % 64); b[i/64]&mask != mask {
			return false
		}
		i += c
	}
	return true
}

// Clear clears the n bits from bit from.
func (b Bits) Clear(from, n int) {
	for i := from; i < from+n; {
		c := min(64-i%64, from+n-i)
		b[i/64] &^= (1<<c - 1) << (i % 64)
		i += c
	}
}

// Has reports whether bit i is set.
func (b Bits) Has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// ValidBits sets in bits, from bit at, the bit of every element of a
// shift's strip (StripRuns') that p holds valid, in the order the strip's
// runs enumerate it — its owned part and its part in each box of p's list,
// a run of rows at a time; where those parts are no rows of the strip, a
// dimension of the strip strided or of the array CYCLIC, an element at a
// time — and returns how many it set.
func (am *ArrayMem) ValidBits(p int, strip section.Section, bits Bits, at int, sc *Scratch) (set int) {
	r := len(strip.Dims)
	if strip.IsEmpty() {
		return 0
	}
	if !am.rowed(strip) {
		strip.ElemsInto(sc.idx[:r], func(idx []int) bool {
			if am.ValidAt(p, idx) {
				bits.Set(at, 1)
				set++
			}
			at++
			return true
		})
		return set
	}
	lo, hi := sc.box[:r], sc.box[r:2*r]
	for k := range lo {
		lo[k], hi[k] = am.OwnedBox(p, k)
	}
	set = stripBits(strip.Dims, lo, hi, bits, at, true, sc)
	for l, i := am.lists[p].boxes, 0; i < len(l); i += 2 * r {
		set += stripBits(strip.Dims, l[i:i+r], l[i+r:i+2*r], bits, at, true, sc)
	}
	return set
}

// DeliverBits makes valid on p what of a shift's strip (StripRuns') it
// received from src arrived, as the strip's validity bitmap from bit at
// says — a bit an element in the order of the strip's runs, which are off
// further, set of them set. src's owned part always arrives and is made
// valid whole, its bits cleared where it is rows of the strip; what bits
// are set besides, a run of them along a row at a time, the runs of
// consecutive rows that span one interval as one box.
func (am *ArrayMem) DeliverBits(p, src int, strip section.Section, runs []Run, off int, bits Bits, at, set int, sc *Scratch) {
	if strip.IsEmpty() {
		return
	}
	r, size := len(strip.Dims), 1
	lo, hi := sc.box[:r], sc.box[r:2*r]
	if am.rowed(strip) {
		for k, d := range strip.Dims {
			l, h := am.OwnedBox(src, k)
			lo[k], hi[k] = max(l, d.Lo), min(h, d.Hi)
			size *= max(hi[k]-lo[k]+1, 0)
		}
		if size > 0 {
			am.add(p, lo, hi, sc)
		}
		if size == set {
			return
		}
		if size > 0 {
			stripBits(strip.Dims, lo, hi, bits, at, false, sc)
		}
	} else {
		part := am.ownedPart(src, strip, sc)
		if am.Deliver(p, part, sc); part.NumElems() == set {
			return
		}
	}
	idx, open := sc.idx[:r], false // open: lo, hi is a box still growing
	for _, run := range runs {
		for i := 0; i < run.N; {
			if !bits.Has(at + i) {
				i++
				continue
			}
			j := i + 1
			for j < run.N && bits.Has(at+j) {
				j++
			}
			am.indexOf(p, run.Off+off+i, idx)
			next := open && r > 1 && idx[r-2] == hi[r-2]+1 && idx[r-1] == lo[r-1] && idx[r-1]+j-i-1 == hi[r-1]
			for k := 0; k < r-2 && next; k++ {
				next = idx[k] == lo[k] && idx[k] == hi[k]
			}
			if next {
				hi[r-2]++
			} else {
				if open {
					am.add(p, lo, hi, sc)
				}
				copy(lo, idx)
				copy(hi, idx)
				hi[r-1], open = hi[r-1]+j-i-1, true
			}
			i = j
		}
		at += run.N
	}
	if open {
		am.add(p, lo, hi, sc)
	}
}

// ownedPart returns the part of sec that p owns, in sc.
func (am *ArrayMem) ownedPart(p int, sec section.Section, sc *Scratch) section.Section {
	part := section.Section{Dims: sc.dims[:len(sec.Dims)]}
	for k, d := range sec.Dims {
		lo, hi := am.OwnedBox(p, k)
		own := section.Dim{Lo: lo, Hi: hi, Step: 1}
		if dd := am.Dist.Dims[k]; dd.Kind == dist.Cyclic {
			own.Step = am.Dist.Grid.Shape[dd.GridDim]
		}
		part.Dims[k] = d.Intersect(own)
	}
	return part
}

// rowed reports whether the parts of a strip in boxes are rows of it:
// every dimension of the strip of step 1 and none of the array CYCLIC.
func (am *ArrayMem) rowed(strip section.Section) bool {
	for _, d := range strip.Dims {
		if d.Step > 1 && d.Lo < d.Hi {
			return false
		}
	}
	return !am.cyclic
}

// stripBits sets — or, set false, clears — in bits the bit of every
// element of a strip of step 1 inside the box [lo, hi], at its position in
// the strip's row-major order from bit at, a run of rows at a time, and
// returns how many there are.
func stripBits(strip []section.Dim, lo, hi []int, bits Bits, at int, set bool, sc *Scratch) (n int) {
	last := len(strip) - 1
	idx, stride, m := sc.idx[:last+1], sc.lo[:last+1], 1
	for k := last; k >= 0; k-- {
		d := strip[k]
		if idx[k] = max(lo[k], d.Lo); idx[k] > min(hi[k], d.Hi) {
			return 0
		}
		stride[k], at, m = m, at+(idx[k]-d.Lo)*m, m*(d.Hi-d.Lo+1)
	}
	// A run is as many rows as follow one another in the strip's order:
	// while the part spans the strip whole past a dimension, that one too.
	top, run := last, min(hi[last], strip[last].Hi)-idx[last]+1
	for top > 0 && run == stride[top-1] {
		top--
		run *= min(hi[top], strip[top].Hi) - idx[top] + 1
	}
	for {
		if n += run; set {
			bits.Set(at, run)
		} else {
			bits.Clear(at, run)
		}
		k := top - 1
		for ; k >= 0; k-- {
			if idx[k] < min(hi[k], strip[k].Hi) {
				idx[k]++
				at += stride[k]
				break
			}
			l := max(lo[k], strip[k].Lo)
			at -= (idx[k] - l) * stride[k]
			idx[k] = l
		}
		if k < 0 {
			return n
		}
	}
}

// indexOf decodes an offset of the stride space in p's plane into the
// global index of its element.
func (am *ArrayLayout) indexOf(p, off int, idx []int) {
	off -= am.base[p]
	for k, s := range am.Strides {
		idx[k] = am.at[p*len(idx)+k] + off/s%am.ext[k]
	}
}

// add makes the elements of the box [lo, hi] that p's local box holds and
// p does not own valid on p. Its part in the local box less p's owned box
// is at most two slabs per dimension: one dimension after the other is
// narrowed to the owned interval, the part below it and the part above it
// delivered whole. Within the covering range of a CYCLIC dimension every
// index that is not p's — not owned as the range's first is — is one more
// slab.
func (am *ArrayMem) add(p int, lo, hi []int, sc *Scratch) {
	r, foreign := len(lo), false
	blo, bhi := sc.box[2*r:3*r], sc.box[3*r:4*r]
	for k := range blo {
		l, h := am.LocalBox(p, k)
		if blo[k], bhi[k] = max(lo[k], l), min(hi[k], h); blo[k] > bhi[k] {
			return
		}
		ownLo, ownHi := am.OwnedBox(p, k)
		foreign = foreign || bhi[k] < ownLo || blo[k] > ownHi
	}
	if foreign { // a ghost: nothing of it is p's
		am.grow(p, blo, bhi)
		return
	}
	for k := range blo {
		slab := func(from, to int) {
			if blo[k], bhi[k] = from, to; from <= to {
				am.grow(p, blo, bhi)
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

// grow appends the box [lo, hi], which holds no element p owns, less the
// boxes p's list already holds, and merges each piece into a box it
// extends along one dimension.
func (am *ArrayMem) grow(p int, lo, hi []int) {
	l, r := am.lists[p].boxes, len(lo)
	n, w := len(l), 2*r
	if l = append(append(l, lo...), hi...); n == 0 {
		am.keep(p, l)
		return
	}
	for j := 0; j < n && len(l) > n; j += w {
		for i := n; i < len(l); {
			if meets(l[i:], l[j:j+r], l[j+r:j+w]) {
				l = cut(l, i, l[j:j+r], l[j+r:j+w])
			} else {
				i += w
			}
		}
	}
	for i := len(l) - w; i >= n; i = min(i, len(l)) - w {
		l = merge(l, i, r)
	}
	am.keep(p, l)
}

// merge merges box i of the list l into a box that it extends along one
// dimension, and the result again, until none is left.
func merge(l []int, i, r int) []int {
	for j := 0; j < len(l); j += 2 * r {
		apart := 0 // dimensions in which the boxes differ, 2 when they cannot merge
		for k := 0; k < r && apart < 2 && j != i; k++ {
			switch {
			case l[j+k] == l[i+k] && l[j+r+k] == l[i+r+k]:
			case l[j+r+k]+1 == l[i+k] || l[i+r+k]+1 == l[j+k]:
				apart++
			default:
				apart = 2
			}
		}
		if apart != 1 {
			continue
		}
		for k := 0; k < r; k++ {
			l[j+k], l[j+r+k] = min(l[j+k], l[i+k]), max(l[j+r+k], l[i+r+k])
		}
		last := len(l) - 2*r
		copy(l[i:i+2*r], l[last:])
		if l = l[:last]; j == last {
			j = i
		}
		i, j = j, -2*r
	}
	return l
}

// InvalidateBox clears processor p's validity for every element of the
// box [lo, hi] (inclusive, within the declared bounds) that p does not
// own: the state p's copies are left in once every element of the box has
// been written by its owner, whatever the order of the writes. The box is
// subtracted from p's list.
func (am *ArrayMem) InvalidateBox(p int, lo, hi []int) {
	if am.Dist == nil {
		return
	}
	l, w, cuts := am.lists[p].boxes, 2*len(lo), false
	for i := 0; i < len(l); {
		if meets(l[i:], lo, hi) {
			l, cuts = cut(l, i, lo, hi), true
		} else {
			i += w
		}
	}
	if cuts {
		am.keep(p, l)
	}
}

// InvalidateRange clears the validity of the element at idx on processors
// [lo, hi) but its owner — the range-scoped half of the killing write
// semantics; a replicated array stays valid.
func (am *ArrayMem) InvalidateRange(idx []int, owner, lo, hi int) {
	for p := lo; p < hi; p++ {
		if p != owner {
			am.InvalidateBox(p, idx, idx)
		}
	}
}

// Freeze copies the lists of the image's array slot (ArrayMem.freeze);
// it is the one way to freeze them. The image's first Freeze gives the
// copies of every distributed array's lists their room from one slab,
// sized from the lists' capacities, so an image that never Freezes — a
// native one — keeps none of it.
func (m *Memory) Freeze(slot int) {
	if am := &m.Arrays[slot]; am.sent == nil && am.lists != nil {
		n := 0
		for i := range m.Arrays {
			if am := &m.Arrays[i]; am.sent == nil {
				n += am.listCap()
			}
		}
		slab := make([]int, n)
		for i := range m.Arrays {
			if am := &m.Arrays[i]; am.sent == nil && am.lists != nil {
				am.sent = heapsize.Take(&slab, am.listCap())[:0]
			}
		}
	}
	m.Arrays[slot].freeze()
}

// listCap is what every list of the array can hold: Freeze's copy needs
// no more while none outgrows its share.
func (am *ArrayMem) listCap() int {
	n := 0
	for _, l := range am.lists {
		n += cap(l.boxes)
	}
	return n
}

// freeze copies every processor's list for CopyValid to read of a sender
// until the next Freeze. What a sender's strip holds lies outside what it
// receives, so receivers on disjoint ranges deliver concurrently after one
// Freeze.
func (am *ArrayMem) freeze() {
	am.sent = slices.Grow(am.sent[:0], am.listCap())
	for p, l := range am.lists {
		am.sentAt[p], am.sent = len(am.sent), append(am.sent, l.boxes...)
	}
	am.sentAt[len(am.lists)] = len(am.sent)
}

// CopyValid delivers a shift's strip from src to dst — the section
// StripRuns returns, inside both local boxes and not in sc, and its runs,
// off further: what src held valid of it at the last Freeze is copied into
// dst's plane, made valid on dst and counted. Where src held all of it,
// that is the runs; else its owned part and its part in each box of src's
// list, disjoint, one after the other.
func (am *ArrayMem) CopyValid(src, dst int, strip section.Section, runs []Run, off int, sc *Scratch) int {
	if strip.IsEmpty() {
		return 0
	}
	r := len(strip.Dims)
	lo, hi := sc.box[:r], sc.box[r:2*r]
	for k, d := range strip.Dims {
		lo[k], hi[k] = d.Lo, d.Hi
	}
	held := am.sent[am.sentAt[src]:am.sentAt[src+1]]
	if am.holds(src, lo, hi, held) {
		moved, from, to, bs, bd := 0, am.Data[src], am.Data[dst], am.base[src]-off, am.base[dst]-off
		for _, run := range runs {
			copyRun(to[run.Off-bd:], from[run.Off-bs:], run.N)
			moved += run.N
		}
		am.Deliver(dst, strip, sc)
		return moved
	}
	part := am.ownedPart(src, strip, sc)
	moved := am.copyPart(src, dst, part, sc)
	for i := 0; i < len(held); i += 2 * r {
		for k, d := range strip.Dims {
			part.Dims[k] = d.Intersect(section.Dim{Lo: held[i+k], Hi: held[i+r+k], Step: 1})
		}
		moved += am.copyPart(src, dst, part, sc)
	}
	return moved
}

// copyPart copies the elements of part from src's plane into dst's, makes
// them valid on dst and returns how many there are.
func (am *ArrayMem) copyPart(src, dst int, part section.Section, sc *Scratch) int {
	if part.IsEmpty() {
		return 0
	}
	from, to, bs, bd := am.Data[src], am.Data[dst], am.base[src], am.base[dst]
	am.walk(part, sc.idx, false, func(_, off, n int) { copyRun(to[off-bd:], from[off-bs:], n) })
	am.Deliver(dst, part, sc)
	return part.NumElems()
}

// CheckHulls holds every processor's list of valid boxes to its
// invariants, for tests and verifiers: it returns an error naming the
// first box outside its processor's local box, holding an element its
// processor owns, or meeting another box of the list.
func (m *Memory) CheckHulls() error {
	for _, am := range m.Arrays {
		r := len(am.Strides)
		for p := 0; am.Dist != nil && p < m.P; p++ {
			l := am.lists[p].boxes
			for i := 0; i < len(l); i += 2 * r {
				lo, hi, owned := l[i:i+r], l[i+r:i+2*r], 1
				for k := range lo {
					if first, last := am.LocalBox(p, k); lo[k] > hi[k] || lo[k] < first || hi[k] > last {
						return fmt.Errorf("runtime: processor %d holds %s box %v:%v valid, not a box inside its local box", p, am.Name, lo, hi)
					}
					owned *= am.owns(p, k, lo[k], hi[k])
				}
				if owned > 0 {
					return fmt.Errorf("runtime: processor %d lists %s box %v:%v, which holds elements it owns", p, am.Name, lo, hi)
				}
				for j := i + 2*r; j < len(l); j += 2 * r {
					if meets(l[j:], lo, hi) {
						return fmt.Errorf("runtime: processor %d lists %s boxes %v:%v and %v:%v, which meet", p, am.Name, lo, hi, l[j:j+r], l[j+r:j+2*r])
					}
				}
			}
		}
	}
	return nil
}

// copyRun copies the first n values of from to to: one assignment for a
// strip across the last dimension, whose runs are an element each.
func copyRun(to, from []float64, n int) {
	if n == 1 {
		to[0] = from[0]
		return
	}
	copy(to[:n], from)
}
