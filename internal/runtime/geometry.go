package runtime

import (
	"gcao/internal/dist"
	"gcao/internal/heapsize"
	"gcao/internal/section"
	"gcao/internal/sem"
)

// The geometry of ownership. Every bulk memory operation — ghost
// exchange, broadcast, SUM, invalidation — moves or marks a set of
// elements that is a box, or a box cut where the owner changes, so none
// of them asks who owns an element: they read tables built once per
// array layout (initGeometry) and shared by every image under it, and the
// boxes a processor holds valid (valid.go), and walk rows.
//
//   - the owned box of processor p (OwnedBox): per dimension its BLOCK
//     interval, the declared bounds of a collapsed dimension, the
//     covering range Lo+c:Hi of a CYCLIC one;
//   - the local box of processor p (LocalBox), what its plane stores: its
//     owned box widened by the layout's margin on every BLOCK dimension, at
//     extents all processors share (the largest block plus twice the
//     margin, at most the declared extent) — §4.8's overlap region. Nothing
//     outside it is ever valid on p, and an offset of the planes' shared
//     stride space less p's Base is one of p's plane;
//   - the strip box of a shift (StripRuns): what one sender passes to
//     its one receiver, the sender's box cut down to the boundary strip
//     along the moved dimension and widened by the ghost margin in the
//     others;
//   - the run visitor (walk): a section inside the declared bounds, in
//     section order, as runs of consecutive offsets of the stride space —
//     a row at a time where the last dimension has step 1 — and, for the
//     operations that read owner rows (OwnerRuns), cut where the owner
//     changes.
//
// A CYCLIC dimension's owned set is a lattice, not a range. On the
// moved dimension of a shift the strip section is intersected with that
// lattice; under the owner cut a CYCLIC last dimension degenerates to
// runs of one element. No other dimension pays for it.

// Scratch is the index and section scratch of one caller of the bulk
// operations, so that none of them allocates. Every plan frame owns one:
// one per simulator shard, one per native processor.
type Scratch struct {
	lo, hi, idx, box []int
	dims             []section.Dim
}

// NewScratch returns scratch for arrays of up to the given rank. Its
// arrays are whole cache lines, which the allocator aligns, so the scratch
// of processors that run at once shares none.
func NewScratch(rank int) *Scratch {
	ints, dims := make([]int, heapsize.Lines[int](7*rank)), make([]section.Dim, heapsize.Lines[section.Dim](rank))
	return new(Scratch).Carve(rank, &ints, &dims)
}

// ScratchSize returns the ints and dims Carve takes for arrays of rank.
func ScratchSize(rank int) (ints, dims int) { return 7 * rank, rank }

// Carve carves sc, scratch for arrays of up to the given rank, from slabs.
func (sc *Scratch) Carve(rank int, ints *[]int, dims *[]section.Dim) *Scratch {
	sc.lo, sc.hi, sc.idx = heapsize.Take(ints, rank), heapsize.Take(ints, rank), heapsize.Take(ints, rank)
	sc.box, sc.dims = heapsize.Take(ints, 4*rank), heapsize.Take(dims, rank)
	return sc
}

// tableInts returns the ints initGeometry carves for the array on p
// processors: a table a dimension, runEnd, Strides, ext, at, base, box.
func tableInts(arr *sem.Array, p int) int {
	r, n := arr.Rank(), 0
	for k := range arr.Lo {
		n += arr.Hi[k] - arr.Lo[k] + 1
	}
	if arr.Dist != nil {
		n += 2 * p * r
	}
	return n + arr.Hi[r-1] - arr.Lo[r-1] + 1 + 2*r + p*r + p
}

// initGeometry builds the ownership tables of the array on p processors
// and its local boxes — widened by margin on every BLOCK dimension when
// boxed, else the declared bounds — from ints, and returns the rest.
func (am *ArrayLayout) initGeometry(p, margin int, boxed bool, ints []int) []int {
	arr, d := am.Arr, am.Dist
	rank := arr.Rank()
	for k := range am.own {
		am.own[k] = heapsize.Take(&ints, arr.Hi[k]-arr.Lo[k]+1)
	}
	am.runEnd, am.Strides, am.ext = heapsize.Take(&ints, len(am.own[rank-1])), heapsize.Take(&ints, rank), heapsize.Take(&ints, rank)
	am.at, am.base = heapsize.Take(&ints, p*rank), heapsize.Take(&ints, p)
	am.size = 1
	for k := rank - 1; k >= 0; k-- {
		if am.ext[k] = len(am.own[k]); boxed && d != nil && d.Dims[k].Kind == dist.Block {
			lo, hi, _ := d.LocalRange(k, 0) // the first block is a largest one
			am.ext[k] = min(hi-lo+1+2*margin, am.ext[k])
		}
		am.Strides[k], am.size = am.size, am.size*am.ext[k]
	}
	for q := 0; q < p; q++ {
		copy(am.at[q*rank:], arr.Lo)
	}
	if d != nil {
		for k, dd := range d.Dims {
			if am.cyclic = am.cyclic || dd.Kind == dist.Cyclic; dd.Kind == dist.Star {
				continue
			}
			stride := d.Grid.Stride(dd.GridDim)
			for i := range am.own[k] {
				am.own[k][i] = d.OwnerDim(k, arr.Lo[k]+i) * stride
			}
		}
		am.box = heapsize.Take(&ints, 2*p*rank)
		for q := 0; q < p; q++ {
			for k, dd := range d.Dims {
				// An owner of nothing has its block past the declared bounds:
				// its local box ends at them, where the last owner's strip lands.
				lo, hi, ok := d.LocalRange(k, q/d.Grid.Stride(dd.GridDim)%d.Grid.Shape[dd.GridDim])
				if am.ext[k] < len(am.own[k]) {
					am.at[q*rank+k] = min(max(lo-margin, arr.Lo[k]), arr.Hi[k]-am.ext[k]+1)
					am.base[q] += (am.at[q*rank+k] - arr.Lo[k]) * am.Strides[k]
				}
				if !ok {
					lo, hi = 1, 0
				}
				am.box[2*(q*rank+k)], am.box[2*(q*rank+k)+1] = lo, hi
			}
		}
	}
	own := am.own[rank-1]
	for i := len(own) - 1; i >= 0; i-- {
		am.runEnd[i] = i
		if i+1 < len(own) && own[i+1] == own[i] {
			am.runEnd[i] = am.runEnd[i+1]
		}
	}
	return ints
}

// OwnedBox returns the inclusive bounds of processor p's owned box in
// dimension k: its block of a BLOCK dimension, the declared bounds of a
// collapsed one, the covering range of a CYCLIC one (whose members are
// every Grid.Shape-th index from lo). lo > hi when p owns nothing.
func (am *ArrayLayout) OwnedBox(p, k int) (lo, hi int) {
	i := 2 * (p*len(am.Strides) + k)
	return am.box[i], am.box[i+1]
}

// LocalBox returns the inclusive bounds of processor p's local box in
// dimension k, what its plane stores.
func (am *ArrayLayout) LocalBox(p, k int) (lo, hi int) {
	lo = am.at[p*len(am.Strides)+k]
	return lo, lo + am.ext[k] - 1
}

// Base returns what an offset of the stride space is less in p's plane.
func (am *ArrayLayout) Base(p int) int { return am.base[p] }

// Local returns the offset of the element at idx in processor p's plane,
// false when p's local box does not hold it.
func (am *ArrayLayout) Local(p int, idx []int) (int, bool) {
	at, off := am.at[p*len(idx):], 0
	for k, x := range idx {
		if x -= at[k]; x < 0 || x >= am.ext[k] {
			return 0, false
		}
		off += x * am.Strides[k]
	}
	return off, true
}

// Run is a run of N consecutive offsets of the stride space from Off.
type Run struct{ Off, N int }

// StripRuns visits, in section order, the elements of sec that a shift
// by sign along array dimension ad moves from processor src to its
// neighbour: those src owns along ad within width of its sign-side
// block boundary, inside the receiver's block widened by width (the
// ghost margin) in every other dimension — the two processors differ in
// the moved grid coordinate only, so that block is src's own. Both
// backends enumerate a strip through this one definition, when package
// plan builds an exchange schedule; the runs are offsets of the stride
// space, each side's Base less in its plane, and the strip lies in both
// local boxes when width is at most the layout's margin. It returns the
// strip as a section in sc (valid until sc is used again), what the
// receiver's CopyValid or Deliver makes valid.
func (am *ArrayLayout) StripRuns(sec section.Section, src, ad, sign, width int, sc *Scratch, f func(off, n int)) section.Section {
	lo, hi := sc.lo[:len(am.Strides)], sc.hi[:len(am.Strides)]
	if !am.stripBox(src, ad, sign, width, lo, hi) {
		return section.Section{}
	}
	strip := sec.ClipInto(lo, hi, sc.dims)
	if dd := am.Dist.Dims[ad]; dd.Kind == dist.Cyclic {
		l, h := am.OwnedBox(src, ad)
		strip.Dims[ad] = strip.Dims[ad].Intersect(section.Dim{Lo: l, Hi: h, Step: am.Dist.Grid.Shape[dd.GridDim]})
	}
	am.walk(strip, sc.idx, false, func(_, off, n int) { f(off, n) })
	return strip
}

// StripBound bounds the runs StripRuns visits for src's strip of any
// section whose last dimension has step: one a row of the strip box, one
// an element where the rows are strided — by the section, or by the
// lattice of a CYCLIC moved last dimension.
func (am *ArrayLayout) StripBound(src, ad, sign, width, step int) int {
	last, n := len(am.Strides)-1, 1
	for k := range am.Strides {
		lo, hi, ok := am.stripDim(src, k, ad, sign, width)
		if !ok {
			return 0
		}
		if k < last || step > 1 || (k == ad && am.Dist.Dims[k].Kind == dist.Cyclic) {
			n *= hi - lo + 1
		}
	}
	return n
}

// stripBox fills lo and hi with the strip box of StripRuns' arguments,
// false when src owns nothing.
func (am *ArrayLayout) stripBox(src, ad, sign, width int, lo, hi []int) bool {
	for k := range lo {
		var ok bool
		if lo[k], hi[k], ok = am.stripDim(src, k, ad, sign, width); !ok {
			return false
		}
	}
	return true
}

// stripDim returns dimension k of the strip box, false when src owns
// nothing along it.
func (am *ArrayLayout) stripDim(src, k, ad, sign, width int) (lo, hi int, ok bool) {
	arr := am.Arr
	l, h := am.OwnedBox(src, k)
	switch {
	case l > h:
		return 0, 0, false
	case k != ad:
		return max(l-width, arr.Lo[k]), min(h+width, arr.Hi[k]), true
	case sign > 0:
		return l, min(l+width-1, h), true
	}
	return max(h-width+1, l), h, true
}

// StripShift reports whether the strip (StripRuns' other arguments as
// given) of the section with bounds to is that of the one with bounds from
// — neither clipped yet, steps equal — moved rigidly, and by how many flat
// offsets: every dimension moved Lo and Hi by one δ, and where δ ≠ 0 it
// lies inside the strip box (so inside the declared bounds) before and
// after, where nothing clips it, and is not a CYCLIC moved dimension, whose
// strip a lattice that stays behind cuts. Then the new strip's runs are the
// old one's Σ δ·Strides further, and its section the old one moved by δ.
func (am *ArrayLayout) StripShift(from, to []section.Dim, src, ad, sign, width int, sc *Scratch) (doff int, ok bool) {
	lo, hi := sc.lo[:len(am.Strides)], sc.hi[:len(am.Strides)]
	if !am.stripBox(src, ad, sign, width, lo, hi) {
		return 0, false
	}
	for k, f := range from {
		d := to[k].Lo - f.Lo
		switch {
		case to[k].Hi-f.Hi != d:
			return 0, false
		case d == 0:
			continue
		case min(f.Lo, to[k].Lo) < lo[k] || max(f.Hi, to[k].Hi) > hi[k] || (k == ad && am.Dist.Dims[k].Kind == dist.Cyclic):
			return 0, false
		}
		doff += d * am.Strides[k]
	}
	return doff, true
}

// OwnerRuns visits sec, which must lie within the declared bounds, in
// section order as runs of n consecutive offsets of the stride space from
// off that one processor owns (processor 0 for a replicated array).
func (am *ArrayLayout) OwnerRuns(sec section.Section, sc *Scratch, f func(owner, off, n int)) {
	am.walk(sec, sc.idx, true, f)
}

// walk is the run visitor: one run per row of the section where the
// last dimension has step 1, one per element where it is strided. With
// cut a run also ends where the owner changes and owner is the run's
// owner; without it owner is meaningless.
func (am *ArrayLayout) walk(sec section.Section, idx []int, cut bool, f func(owner, off, n int)) {
	if sec.IsEmpty() {
		return
	}
	last := len(sec.Dims) - 1
	outer, row := sec.Dims[:last], sec.Dims[last]
	idx, base := idx[:last], 0
	for k, d := range outer {
		idx[k], base = d.Lo, base+(d.Lo-am.Arr.Lo[k])*am.Strides[k]
	}
	lo, hi, step := row.Lo-am.Arr.Lo[last], row.Hi-am.Arr.Lo[last], max(row.Step, 1)
	own, end := am.own[last], am.runEnd
	for {
		owner := 0
		for k, x := range idx {
			if !cut {
				break
			}
			owner += am.own[k][x-am.Arr.Lo[k]]
		}
		for i := lo; i <= hi; {
			o, n := owner, 1
			switch {
			case cut && step == 1:
				o, n = owner+own[i], min(end[i], hi)-i+1
			case cut:
				o = owner + own[i]
			case step == 1:
				n = hi - i + 1
			}
			f(o, base+i, n)
			i += n * step
		}
		k := last - 1
		for ; k >= 0; k-- {
			s := max(outer[k].Step, 1)
			if idx[k] += s; idx[k] <= outer[k].Hi {
				base += s * am.Strides[k]
				break
			}
			base -= (idx[k] - s - outer[k].Lo) * am.Strides[k]
			idx[k] = outer[k].Lo
		}
		if k < 0 {
			return
		}
	}
}
