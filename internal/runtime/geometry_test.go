package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gcao/internal/dist"
	"gcao/internal/section"
	"gcao/internal/sem"
)

// shiftRange is the simulator's delivery of one exchange section into the
// receivers [dstLo, dstHi), built as its schedules build it: after a
// Freeze each takes from its neighbour on the sign side the strip
// StripRuns returns, by CopyValid, and has the bytes of the elements that
// travelled added to bytes[receiver]. The array is m's array a.
func shiftRange(m *Memory, sec section.Section, gridDim, sign, width, dstLo, dstHi int, sc *Scratch, bytes []int) {
	am := m.View("a")
	ad := am.ShiftArrayDim(gridDim)
	m.Freeze(m.Layout.Array("a").Slot)
	for dst := dstLo; dst < dstHi && ad >= 0; dst++ {
		src := am.Dist.Grid.Neighbor(dst, gridDim, sign)
		if src < 0 {
			continue
		}
		var dims [4]section.Dim // CopyValid's strip is not in sc
		var buf [128]Run
		runs := buf[:0]
		strip := am.StripRuns(sec, src, ad, sign, width, sc, func(off, n int) { runs = append(runs, Run{off, n}) })
		strip.Dims = dims[:copy(dims[:], strip.Dims)]
		bytes[dst] += am.CopyValid(src, dst, strip, runs, 0, sc) * am.Arr.ElemBytes()
	}
}

// ---------------------------------------------------------------------
// Oracles: the per-element scans the bulk operations replaced, kept
// verbatim (every element of the section visited, OwnerDim and
// LocalRange asked per element, pair bytes in a map) as the reference
// the run-based operations are compared against, on a twin that keeps a
// flag per element and processor where the memory under test keeps boxes.

// elemTwin is the oracles' memory: values at declared extents, and each
// processor's validity of a as a flag per element (at declared extents
// every processor's plane is indexed alike), written element by element.
type elemTwin struct {
	*Memory
	valid [][]bool
}

// write stores an element of a at its owner and leaves it valid there
// only.
func (w *elemTwin) write(idx []int, v float64) {
	w.Write("a", idx, v)
	off, o := w.View("a").Offset(idx), ownerOf(w.View("a"), idx)
	for p := range w.valid {
		w.valid[p][off] = p == o
	}
}

// ownerOf asks the distribution for an element's owner, per element, as
// the oracles do: independently of the ownership tables under test.
func ownerOf(am *ArrayMem, idx []int) int {
	if am.Dist == nil {
		return 0
	}
	return am.Dist.Owner(idx)
}

func oracleShiftRange(m *elemTwin, sec section.Section, gridDim, sign, width, dstLo, dstHi int) map[[2]int]int {
	am := m.View("a")
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
	gridStride := 1
	for i := gridDim + 1; i < grid.Rank(); i++ {
		gridStride *= grid.Shape[i]
	}
	coordsOf := make([][]int, m.P)
	for p := 0; p < m.P; p++ {
		coordsOf[p] = grid.CoordsInto(p, make([]int, grid.Rank()))
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
		off := am.Offset(idx)
		for src := 0; src < m.P; src++ {
			if coordsOf[src][gridDim] != srcCoord {
				continue
			}
			dst := src - sign*gridStride
			if dst < dstLo || dst >= dstHi {
				continue
			}
			if !m.valid[src][off] {
				continue
			}
			if !oracleInExtendedRegion(arr, coordsOf[dst], idx, ad, margin) {
				continue
			}
			am.Data[dst][off] = am.Data[src][off]
			m.valid[dst][off] = true
			pairs[[2]int{src, dst}] += elemBytes
		}
		return true
	})
	return pairs
}

func oracleInExtendedRegion(arr *sem.Array, coords []int, idx []int, ad, margin int) bool {
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

// oracleBroadcastRange delivers each element to the receivers whose local
// box under the layout of the memory under test, boxes, holds it.
func oracleBroadcastRange(m *elemTwin, sec section.Section, dstLo, dstHi int, boxes *ArrayLayout) int {
	am := m.View("a")
	elemBytes := am.Arr.ElemBytes()
	bytes := 0
	sec.Elems(func(idx []int) bool {
		off := am.Offset(idx)
		o := ownerOf(am, idx)
		v := am.Data[o][off]
		for p := dstLo; p < dstHi; p++ {
			if _, in := boxes.Local(p, idx); p != o && in {
				am.Data[p][off] = v
				m.valid[p][off] = true
			}
		}
		bytes += elemBytes
		return true
	})
	return bytes
}

func oracleSumSection(m *Memory, name string, sec section.Section) (float64, []int) {
	am := m.View(name)
	counts := make([]int, m.P)
	total := 0.0
	sec.Elems(func(idx []int) bool {
		o := ownerOf(am, idx)
		total += am.Data[o][am.Offset(idx)]
		counts[o]++
		return true
	})
	return total, counts
}

// oracleValidity is the ownership pattern a fresh memory at declared
// extents starts from, one ownerOf per element.
func oracleValidity(am *ArrayMem) [][]bool {
	want := make([][]bool, len(am.Data))
	for p := range want {
		want[p] = make([]bool, len(am.Data[p]))
	}
	section.Whole(am.Arr.Lo, am.Arr.Hi).Elems(func(idx []int) bool {
		want[ownerOf(am, idx)][am.Offset(idx)] = true
		return true
	})
	return want
}

// ---------------------------------------------------------------------
// The matrix the oracles are compared over.

type layout struct {
	decl, kinds string
	grid        []int
}

func (l layout) String() string { return fmt.Sprintf("%s %s on %v", l.decl, l.kinds, l.grid) }

// layouts crosses five grids with BLOCK, CYCLIC and collapsed kinds in
// every dimension. The extents (7, 9 and a collapsed 3) are divisible
// by none of the grid extents, so blocks are uneven and some processors
// own nothing: 9 elements over 4 fill three blocks of 3, 7 over 5 four
// blocks of 2. Lower bounds differ from 1 in two dimensions.
func layouts() []layout {
	var out []layout
	for _, grid := range [][]int{{1, 4}, {4, 1}, {2, 2}, {4, 4}, {3, 5}} {
		for _, k1 := range []string{"block", "cyclic"} {
			for _, k2 := range []string{"block", "cyclic"} {
				out = append(out,
					layout{"a(0:6, 9)", "(" + k1 + ", " + k2 + ")", grid},
					layout{"a(3, 7, -1:7)", "(*, " + k1 + ", " + k2 + ")", grid},
					layout{"a(7, 3, 9)", "(" + k1 + ", *, " + k2 + ")", grid},
					layout{"a(7, 9, 3)", "(" + k1 + ", " + k2 + ", *)", grid})
			}
		}
	}
	return out
}

// margins are the local boxes the matrix is run under: declared extents
// (-1), and a's blocks widened by one and by two.
var margins = []int{-1, 1, 2}

// twin builds two memories of one layout holding the same values — one for
// the operation under test, at declared extents or, for a margin of 0 or
// more, with a's local boxes that wide; one at declared extents for its
// oracle — with every element written to a distinct value (valid on its
// owner only). Beside a they hold a replicated r(5), left as built.
func twin(t *testing.T, l layout, margin int) (got *Memory, want *elemTwin) {
	t.Helper()
	shape := strings.Trim(fmt.Sprint(l.grid), "[]")
	src := "routine m(n)\nreal " + l.decl + ", r(5)\n!hpf$ processors p(" + strings.ReplaceAll(shape, " ", ", ") + ")\n" +
		"!hpf$ distribute a" + l.kinds + "\nend\n"
	procs := l.grid[0] * l.grid[1]
	u := unit(t, src, map[string]int{"n": 1}, procs)
	got, want = NewMemory(u, procs), &elemTwin{Memory: NewMemory(u, procs)}
	if margin >= 0 {
		got = NewLayout(u, procs, map[string]int{"a": margin}).NewMemory()
	}
	want.valid = oracleValidity(want.View("a"))
	v := 1.0
	section.Whole(got.View("a").Arr.Lo, got.View("a").Arr.Hi).Elems(func(idx []int) bool {
		got.Write("a", idx, v)
		want.write(idx, v)
		v += 0.5
		return true
	})
	return got, want
}

// sections returns, for an array, the whole of it, a strided section
// and an inset box that a strip only partly meets.
func sections(am *ArrayMem) []section.Section {
	whole := section.Whole(am.Arr.Lo, am.Arr.Hi)
	strided, inset := make([]section.Dim, am.Arr.Rank()), make([]section.Dim, am.Arr.Rank())
	for k, d := range whole.Dims {
		strided[k] = section.Dim{Lo: d.Lo + k%2, Hi: d.Hi, Step: 2 + k%2}
		inset[k] = section.Dim{Lo: min(d.Lo+2, d.Hi), Hi: max(d.Hi-1, d.Lo), Step: 1}
	}
	return []section.Section{whole, {Dims: strided}, {Dims: inset}}
}

// splits returns every division of [0, p) into 1 to 4 contiguous,
// non-empty ranges, as the ascending cut points with p last.
func splits(p int) [][]int {
	var out [][]int
	var rec func(from int, cuts []int)
	rec = func(from int, cuts []int) {
		out = append(out, append(slices.Clone(cuts), p))
		if len(cuts) == 3 {
			return
		}
		for c := from + 1; c < p; c++ {
			rec(c, append(cuts, c))
		}
	}
	rec(0, nil)
	return out
}

// planes is a copy of an array's values and validity: the lists of valid
// boxes of a memory under test, the flags of a twin.
type planes struct {
	data  [][]float64
	lists [][]int
	flags [][]bool
}

func snapshot(am *ArrayMem, flags [][]bool) planes {
	var s planes
	for p := range am.Data {
		s.data = append(s.data, slices.Clone(am.Data[p]))
		s.lists = append(s.lists, slices.Clone(am.Boxes(p)))
	}
	for _, f := range flags {
		s.flags = append(s.flags, slices.Clone(f))
	}
	return s
}

func (s planes) restore(am *ArrayMem, flags [][]bool) {
	for p := range am.Data {
		copy(am.Data[p], s.data[p])
	}
	for p := range am.lists {
		am.lists[p].boxes = append(am.lists[p].boxes[:0], s.lists[p]...)
	}
	for p := range flags {
		copy(flags[p], s.flags[p])
	}
}

// validPlanes materialises every processor's validity of an array.
func validPlanes(am *ArrayMem) [][]bool {
	out := make([][]bool, len(am.Data))
	for p := range out {
		out[p] = am.ValidPlane(p)
	}
	return out
}

// samePlanes compares two memories of one array through global
// coordinates, processor by processor: every element got's local box
// holds has want's value and the validity valid gives it in want's planes,
// and want holds none valid outside that box.
func samePlanes(t *testing.T, what string, got, want *ArrayMem, valid [][]bool) {
	t.Helper()
	rank := len(got.Strides)
	lo, hi, idx := make([]int, rank), make([]int, rank), make([]int, rank)
	for p := range want.Data {
		for k := range lo {
			lo[k], hi[k] = got.LocalBox(p, k)
		}
		inside, n, gv := 0, hi[rank-1]-lo[rank-1]+1, got.ValidPlane(p)
		for copy(idx, lo); ; {
			g, _ := got.Local(p, idx)
			w, _ := want.Local(p, idx)
			for i := range n {
				if valid[p][w+i] {
					inside++
				}
				if gv[g+i] != valid[p][w+i] || math.Float64bits(got.Data[p][g+i]) != math.Float64bits(want.Data[p][w+i]) {
					idx[rank-1] += i
					t.Fatalf("%s: processor %d holds %v at %v (valid %v), the element scan %v (valid %v)",
						what, p, got.Data[p][g+i], idx, gv[g+i], want.Data[p][w+i], valid[p][w+i])
				}
			}
			k := rank - 2
			for ; k >= 0; k-- {
				if idx[k]++; idx[k] <= hi[k] {
					break
				}
				idx[k] = lo[k]
			}
			if k < 0 {
				break
			}
		}
		for _, v := range valid[p] {
			if v {
				inside--
			}
		}
		if inside != 0 {
			t.Fatalf("%s: the element scan holds %d elements valid on processor %d outside its local box %v:%v", what, -inside, p, lo, hi)
		}
	}
}

// sameBytes compares the dense per-receiver byte counts of one shift
// with the element scan's pair map: every pair is (neighbour of dst,
// dst), and a receiver that was sent nothing is in no pair.
func sameBytes(t *testing.T, what string, grid dist.Grid, gridDim, sign int, got []int, want map[[2]int]int) {
	t.Helper()
	pairs := 0
	for dst, b := range got {
		if b == 0 {
			continue
		}
		pairs++
		src := grid.Neighbor(dst, gridDim, sign)
		if src < 0 || want[[2]int{src, dst}] != b {
			t.Fatalf("%s: %d bytes into processor %d from %d, the element scan's pairs are %v", what, b, dst, src, want)
		}
	}
	if pairs != len(want) {
		t.Fatalf("%s: %d receivers were sent something, the element scan has %d pairs: %v vs %v", what, pairs, len(want), got, want)
	}
}

// TestStripMatchesElementScan: the per-receiver strip delivery leaves
// the same rows, validity planes and per-pair bytes as the per-element
// scan of the whole section it replaced — for every layout of the
// matrix, at declared extents and in local boxes a margin wide that the
// strips are no wider than, both directions, strips narrower and wider
// than a block, whole, strided and inset sections, on planes earlier
// exchanges along both grid dimensions have already seeded with ghosts
// (the first phase of the two-phase corner delivery), and whatever way
// the receivers are divided among shards: every division into up to four
// ranges where the grid has four processors; on the 15- and 16-processor
// grids every division for one case in 24, and the whole, halves,
// quarters and an uneven four for all of them.
func TestStripMatchesElementScan(t *testing.T) {
	n := 0
	for _, l := range layouts() {
		for _, margin := range margins {
			stripMatchesElementScan(t, l, margin, &n)
		}
	}
}

func stripMatchesElementScan(t *testing.T, l layout, margin int, n *int) {
	got, want := twin(t, l, margin)
	am, ref := got.View("a"), want.View("a")
	procs := got.P
	all := splits(procs)
	some := [][]int{{procs}, {procs / 2, procs}, {procs / 4, procs / 2, 3 * procs / 4, procs}, {1, 2, procs - 1, procs}}
	sc, bytes := NewScratch(am.Arr.Rank()), make([]int, procs)
	fresh, wantFresh := snapshot(am, nil), snapshot(ref, want.valid)
	for _, sec := range sections(am) {
		for _, sign := range []int{1, -1} {
			for _, width := range []int{1, 2, 4} {
				if margin >= 0 && width > margin {
					continue
				}
				for gridDim := 0; gridDim < 2; gridDim++ {
					what := fmt.Sprintf("%v margin %d section %v shift dim %d sign %+d width %d", l, margin, sec, gridDim, sign, width)
					fresh.restore(am, nil)
					wantFresh.restore(ref, want.valid)
					// Seed ghosts along the other grid dimension, then along
					// the moved one: a sender then holds copies of the block
					// past its own, which a strip wider than the block must
					// not forward.
					var pairs map[[2]int]int
					for _, seedDim := range []int{1 - gridDim, gridDim} {
						clear(bytes)
						shiftRange(got, ref.whole, seedDim, sign, width, 0, procs, sc, bytes)
						pairs = oracleShiftRange(want, ref.whole, seedDim, sign, width, 0, procs)
						samePlanes(t, what+" (seeding phase)", am, ref, want.valid)
						sameBytes(t, what+" (seeding phase)", am.Dist.Grid, seedDim, sign, bytes, pairs)
					}

					seeded := snapshot(am, nil)
					pairs = oracleShiftRange(want, sec, gridDim, sign, width, 0, procs)
					cuts := some
					if *n++; procs <= 4 || *n%24 == 0 {
						cuts = all
					}
					for _, cut := range cuts {
						seeded.restore(am, nil)
						clear(bytes)
						lo := 0
						for _, hi := range cut {
							shiftRange(got, sec, gridDim, sign, width, lo, hi, sc, bytes)
							lo = hi
						}
						samePlanes(t, fmt.Sprintf("%s ranges %v", what, cut), am, ref, want.valid)
						sameBytes(t, fmt.Sprintf("%s ranges %v", what, cut), am.Dist.Grid, gridDim, sign, bytes, pairs)
					}
				}
			}
		}
	}
}

// stripOf enumerates the strip src passes of the section with the given
// unclipped bounds from scratch, as a caller of StripRuns does: clipped to
// the declared bounds, then walked. It returns the runs and the strip.
func stripOf(am *ArrayMem, dims []section.Dim, src, ad, sign, width int, sc *Scratch) (runs [][2]int, strip []section.Dim) {
	sec := section.Section{Dims: dims}.ClipInto(am.Arr.Lo, am.Arr.Hi, make([]section.Dim, len(dims)))
	s := am.StripRuns(sec, src, ad, sign, width, sc, func(off, n int) { runs = append(runs, [2]int{off, n}) })
	return runs, slices.Clone(s.Dims)
}

// TestStripShiftMatchesRebuild: wherever StripShift says a moved section's
// strip is the old strip translated, it is — run for run at the offset it
// returned, and as a section — against StripRuns from scratch on the moved
// section; for every layout of the matrix, every sender, both grid
// dimensions and directions, widths 1 and 2, over a seeded corpus of
// sections (planes, rows, boxes, strided, reaching and crossing the
// declared bounds) moved by up to two in either direction along one or two
// dimensions, now and then not rigidly. The corpus must hold translations
// along BLOCK, CYCLIC and collapsed dimensions, and the moves the rule has
// to decline — a clipped extent, a CYCLIC moved dimension, a block left
// for its neighbour's, Lo and Hi apart — are declined.
func TestStripShiftMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	moved := map[dist.Kind]int{} // translations, by the kind of a dimension that moved
	for _, l := range layouts() {
		got, _ := twin(t, l, -1)
		am := got.View("a")
		rank, sc := am.Arr.Rank(), NewScratch(am.Arr.Rank())
		for n := 0; n < 150; n++ {
			from, to := make([]section.Dim, rank), make([]section.Dim, rank)
			delta := make([]int, rank)
			for k := range from {
				ext := am.Arr.Hi[k] - am.Arr.Lo[k] + 1
				lo := am.Arr.Lo[k] - 1 + rng.Intn(ext+1)
				from[k] = section.Dim{Lo: lo, Hi: lo + rng.Intn(2)*rng.Intn(ext+1), Step: 1 + rng.Intn(4)/3*rng.Intn(3)}
				to[k] = from[k]
			}
			for m := 1 + rng.Intn(2); m > 0; m-- {
				k := rng.Intn(rank)
				delta[k] = rng.Intn(5) - 2
				to[k].Lo, to[k].Hi = from[k].Lo+delta[k], from[k].Hi+delta[k]
				if rng.Intn(12) == 0 {
					to[k].Hi++
				}
			}
			for src := 0; src < got.P; src++ {
				for gridDim := 0; gridDim < 2; gridDim++ {
					ad, sign, width := am.ShiftArrayDim(gridDim), 1-2*rng.Intn(2), 1+rng.Intn(2)
					if runs, _ := stripOf(am, to, src, ad, sign, width, sc); len(runs) > am.StripBound(src, ad, sign, width, to[rank-1].Step, sc) {
						t.Fatalf("%v: %v from processor %d along dimension %d sign %+d width %d: %d runs, StripBound %d",
							l, to, src, ad, sign, width, len(runs), am.StripBound(src, ad, sign, width, to[rank-1].Step, sc))
					}
					doff, ok := am.StripShift(from, to, src, ad, sign, width, sc)
					if !ok {
						continue
					}
					what := fmt.Sprintf("%v: %v to %v from processor %d along dimension %d sign %+d width %d", l, from, to, src, ad, sign, width)
					was, wasStrip := stripOf(am, from, src, ad, sign, width, sc)
					now, nowStrip := stripOf(am, to, src, ad, sign, width, sc)
					for i := range was {
						was[i][0] += doff
					}
					if !slices.Equal(was, now) {
						t.Fatalf("%s: translated by %d the runs are %v, rebuilt %v", what, doff, was, now)
					}
					for k, d := range wasStrip {
						if len(now) > 0 && (nowStrip[k] != section.Dim{Lo: d.Lo + delta[k], Hi: d.Hi + delta[k], Step: d.Step}) {
							t.Fatalf("%s: the strip %v moved by %v is not the rebuilt %v", what, wasStrip, delta, nowStrip)
						}
						if delta[k] != 0 && len(now) > 0 {
							moved[am.Dist.Dims[k].Kind]++
						}
					}
				}
			}
		}
	}
	for _, kind := range []dist.Kind{dist.Star, dist.Block, dist.Cyclic} {
		if moved[kind] == 0 {
			t.Errorf("the corpus holds no translated strip along a dimension of kind %v", kind)
		}
	}
	t.Logf("non-empty strips translated along collapsed / BLOCK / CYCLIC dimensions: %d / %d / %d", moved[dist.Star], moved[dist.Block], moved[dist.Cyclic])

	// a(3, 7, -1:7) as (*, BLOCK, CYCLIC) on 2 × 2: processor 0 holds rows
	// 1-4 of dimension 2 and every other index from -1 of dimension 3.
	got, _ := twin(t, layout{"a(3, 7, -1:7)", "(*, block, cyclic)", []int{2, 2}}, -1)
	am, sc := got.View("a"), NewScratch(3)
	plane := func(i, jlo, jhi, klo, khi int) []section.Dim {
		return []section.Dim{{Lo: i, Hi: i, Step: 1}, {Lo: jlo, Hi: jhi, Step: 1}, {Lo: klo, Hi: khi, Step: 1}}
	}
	for _, tc := range []struct {
		name     string
		from, to []section.Dim
		ad       int
		want     bool
	}{
		{"the next plane", plane(1, 1, 7, -1, 7), plane(2, 1, 7, -1, 7), 1, true},
		{"the next plane, sent along the CYCLIC dimension", plane(1, 1, 7, -1, 7), plane(2, 1, 7, -1, 7), 2, true},
		{"a row moved inside the block and its margin", plane(1, 2, 2, -1, 7), plane(1, 5, 5, -1, 7), 2, true},
		{"a CYCLIC dimension that is not the moved one", plane(1, 1, 7, 0, 3), plane(1, 1, 7, 1, 4), 1, true},
		{"a plane past the declared bounds", plane(3, 1, 7, -1, 7), plane(4, 1, 7, -1, 7), 1, false},
		{"an extent the declared bounds clip", plane(1, 1, 7, -2, 3), plane(1, 1, 7, -1, 4), 1, false},
		{"the CYCLIC moved dimension", plane(1, 1, 7, 0, 3), plane(1, 1, 7, 1, 4), 2, false},
		{"a row moved into the neighbour's block", plane(1, 2, 2, -1, 7), plane(1, 6, 6, -1, 7), 2, false},
		{"Lo and Hi apart", plane(1, 2, 3, -1, 7), plane(1, 3, 5, -1, 7), 2, false},
	} {
		if _, ok := am.StripShift(tc.from, tc.to, 0, tc.ad, -1, 1, sc); ok != tc.want {
			t.Errorf("%s (%v to %v, sent along dimension %d): translated %v, want %v", tc.name, tc.from, tc.to, tc.ad+1, ok, tc.want)
		}
	}
}

// TestOwnerRunsMatchElementScan: broadcast and SUM walk owner runs and
// leave what their per-element scans left, at declared extents and in
// local boxes (where a broadcast delivers what a receiver's box holds):
// the same planes and payload bytes whatever ranges the receivers are
// divided into, a bit-equal total (the accumulation order is the
// section's) with equal per-owner counts. A new memory, and one Reset after
// the broadcasts, hold their owned sets valid and nothing else.
func TestOwnerRunsMatchElementScan(t *testing.T) {
	for _, l := range layouts() {
		for _, margin := range margins {
			got, want := twin(t, l, margin)
			am, ref := got.View("a"), want.View("a")
			procs := got.P
			sc, counts := NewScratch(am.Arr.Rank()), make([]int, procs)
			fresh, wantFresh := snapshot(am, nil), snapshot(ref, want.valid)
			for _, sec := range sections(am) {
				what := fmt.Sprintf("%v margin %d section %v", l, margin, sec)
				total := am.SumSection(sec, sc, counts)
				wantTotal, wantCounts := oracleSumSection(want.Memory, "a", sec)
				if math.Float64bits(total) != math.Float64bits(wantTotal) || !slices.Equal(counts, wantCounts) {
					t.Fatalf("%s: SumSection = %v %v, the element scan %v %v", what, total, counts, wantTotal, wantCounts)
				}

				wantFresh.restore(ref, want.valid)
				wantBytes := oracleBroadcastRange(want, sec, 0, procs, am.ArrayLayout)
				for _, cut := range [][]int{{procs}, {1, procs}, {procs / 4, procs / 2, 3 * procs / 4, procs}} {
					fresh.restore(am, nil)
					lo := 0
					for _, hi := range cut {
						if b := am.BroadcastRange(sec, lo, hi, sc); b != wantBytes {
							t.Fatalf("%s: BroadcastRange [%d,%d) = %d bytes, the element scan %d", what, lo, hi, b, wantBytes)
						}
						lo = hi
					}
					samePlanes(t, fmt.Sprintf("%s broadcast ranges %v", what, cut), am, ref, want.valid)
				}
			}

			got.Reset()
			for _, mem := range []*Memory{got.Layout.NewMemory(), got} {
				a := mem.View("a")
				section.Whole(a.Arr.Lo, a.Arr.Hi).Elems(func(idx []int) bool {
					for p := 0; p < procs; p++ {
						if a.ValidAt(p, idx) != (ownerOf(a, idx) == p) {
							t.Fatalf("%v margin %d: processor %d holds %v valid %v, not the ownership pattern", l, margin, p, idx, a.ValidAt(p, idx))
						}
					}
					return true
				})
				for p := range a.Data {
					if len(a.Boxes(p)) != 0 || slices.ContainsFunc(a.Data[p], func(v float64) bool { return v != 0 }) {
						t.Fatalf("%v margin %d: processor %d holds a value or a valid box after Reset", l, margin, p)
					}
				}
			}
		}
	}

	// A replicated array has one row, owned by processor 0.
	u := unit(t, memSrc, map[string]int{"n": 8}, 4)
	m := NewMemory(u, 4)
	for j := 1; j <= 8; j++ {
		m.Write("r", []int{j}, float64(j)/3)
	}
	counts := make([]int, 4)
	sec := section.Section{Dims: []section.Dim{{Lo: 2, Hi: 8, Step: 3}}}
	total := m.View("r").SumSection(sec, NewScratch(1), counts)
	if wantTotal, wantCounts := oracleSumSection(m, "r", sec); total != wantTotal || !slices.Equal(counts, wantCounts) {
		t.Fatalf("replicated SumSection = %v %v, the element scan %v %v", total, counts, wantTotal, wantCounts)
	}
}

// TestBulkOperationsDoNotAllocate: a warm call of each bulk operation on
// local boxes allocates nothing — its scratch is the caller's, the
// geometry is the array's, the lists of valid boxes keep their storage —
// and neither does Reset, over whatever the operations before it touched,
// nor StripShift, so the warm native path and a simulator superstep stay
// off the allocator.
func TestBulkOperationsDoNotAllocate(t *testing.T) {
	got, _ := twin(t, layout{"a(3, 7, -1:7)", "(*, block, cyclic)", []int{2, 2}}, 2)
	am := got.View("a")
	sc, ints := NewScratch(3), make([]int, 4)
	sec := sections(am)[2]
	lo, hi := []int{1, 2, 0}, []int{3, 6, 6}
	next := slices.Clone(sec.Dims) // the inset box, one plane down
	next[0].Lo, next[0].Hi = next[0].Lo-1, next[0].Hi-1
	strip := section.Section{Dims: []section.Dim{{Lo: 1, Hi: 1, Step: 1}, {Lo: 2, Hi: 2, Step: 1}, {Lo: 0, Hi: 2, Step: 1}}}
	for name, f := range map[string]func(){
		"Reset":          got.Reset,
		"CopyValid":      func() { shiftRange(got, sec, 1, -1, 2, 0, 4, sc, ints) },
		"BroadcastRange": func() { am.BroadcastRange(sec, 0, 4, sc) },
		"SumSection":     func() { am.SumSection(sec, sc, ints) },
		"InvalidateBox":  func() { am.InvalidateBox(2, lo, hi) },
		"StripShift":     func() { am.StripShift(sec.Dims, next, 1, 1, -1, 2, sc) },
		"Holds":          func() { am.Holds(2, lo, hi) },
		"ValidBits":      func() { am.ValidBits(2, strip, make(Bits, 1), 0, sc) },
		"DeliverBits":    func() { am.DeliverBits(2, 3, strip, []Run{{am.Base(2) + 4, 3}}, 0, Bits{0b101}, 0, 2, sc) },
	} {
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, allocs)
		}
	}
}

// TestValidBoxesMatchPlane drives seeded random sequences of the
// operations that deliver, invalidate and reset — shift delivery
// (shiftRange) and BroadcastRange over random receiver ranges, Deliver of
// a section and DeliverBits of a strip to one processor, owner stores into a
// and the replicated r, InvalidateRange over random processor ranges,
// single kills, InvalidateBox on random boxes, now and then a Reset — on
// every layout of the matrix (BLOCK, CYCLIC and collapsed dimensions), at
// declared extents and in local boxes 0, 1 and 2 wide (shifts no wider),
// next to a twin at declared extents on which each operation is done
// element by element on a flag per element (the oracles above; a box
// cleared by asking every element's owner). After every step the planes
// ValidPlane materialises agree with the twin's bit for bit through global
// coordinates, Holds and ValidBits agree with them on a random box and on
// strips, and every list keeps its invariants: its boxes disjoint, inside the
// local box and holding no element the processor owns (CheckHulls). After
// every Reset, and one more when the sequence ends, every plane of both
// arrays is a new memory's.
func TestValidBoxesMatchPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, l := range layouts() {
		for _, margin := range append([]int{0}, margins...) {
			got, want := twin(t, l, margin)
			am, ref := got.View("a"), want.View("a")
			procs, rank := got.P, am.Arr.Rank()
			sc, bytes := NewScratch(rank), make([]int, procs)
			pattern := oracleValidity(ref)
			secs := sections(am)
			built := NewMemory(got.Unit, procs)
			widths := 3
			if margin >= 0 {
				widths = margin
			}
			point := func() []int {
				ix := make([]int, rank)
				for k := range ix {
					ix[k] = am.Arr.Lo[k] + rng.Intn(am.Arr.Hi[k]-am.Arr.Lo[k]+1)
				}
				return ix
			}
			box := func() (lo, hi []int) {
				lo, hi = point(), make([]int, rank)
				for k := range hi {
					hi[k] = lo[k] + rng.Intn(am.Arr.Hi[k]-lo[k]+1)
				}
				return lo, hi
			}
			kill := func(p int, ix []int) {
				if ownerOf(ref, ix) != p {
					want.valid[p][ref.Offset(ix)] = false
				}
			}
			var trace []string
			for step := 0; step <= 60; step++ {
				lo := rng.Intn(procs)
				hi := lo + 1 + rng.Intn(procs-lo)
				sec := secs[rng.Intn(len(secs))]
				switch op := rng.Intn(14); {
				case step == 60 || op == 9:
					trace = append(trace, "reset")
					got.Reset()
					for p := range pattern {
						clear(ref.Data[p])
						copy(want.valid[p], pattern[p])
					}
					samePlanes(t, fmt.Sprintf("%v margin %d: a new memory and a after %s", l, margin, strings.Join(trace, "; ")), am, built.View("a"), validPlanes(built.View("a")))
					samePlanes(t, fmt.Sprintf("%v margin %d: a new memory and r after %s", l, margin, strings.Join(trace, "; ")), got.View("r"), built.View("r"), validPlanes(built.View("r")))
				case op == 10:
					ix := point()
					trace = append(trace, fmt.Sprintf("store %v and r(%d)", ix, 1+step%5))
					got.Write("a", ix, float64(step))
					want.write(ix, float64(step))
					got.Write("r", []int{1 + step%5}, float64(step))
				case op == 11:
					ix := point()
					trace = append(trace, fmt.Sprintf("kill %v on [%d,%d) but its owner", ix, lo, hi))
					am.InvalidateRange(ix, am.Owner(ix), lo, hi)
					for p := lo; p < hi; p++ {
						kill(p, ix)
					}
				case op == 12:
					ix := point()
					trace = append(trace, fmt.Sprintf("kill %v on %d", ix, lo))
					am.InvalidateBox(lo, ix, ix)
					kill(lo, ix)
				case op == 13:
					// What an unpack makes valid: a whole strip, or a run of it.
					p, blo, bhi := lo, make([]int, rank), make([]int, rank)
					for k := range blo {
						blo[k], bhi[k] = am.LocalBox(p, k)
					}
					part := sec.ClipInto(blo, bhi, make([]section.Dim, rank))
					mark := func(ix []int) bool {
						if ownerOf(ref, ix) != p {
							want.valid[p][ref.Offset(ix)] = true
						}
						return true
					}
					if rng.Intn(2) == 0 {
						trace = append(trace, fmt.Sprintf("deliver %v to %d", part, p))
						am.Deliver(p, part, sc)
						part.Elems(mark)
						break
					}
					// An unpack of a strip from src, a box inside p's local box:
					// src's owned part arrives, and some of the rest.
					src, rlo, rhi := rng.Intn(procs), make([]int, rank), make([]int, rank)
					for k := range rlo {
						rlo[k] = blo[k] + rng.Intn(bhi[k]-blo[k]+1)
						rhi[k] = rlo[k] + rng.Intn(bhi[k]-rlo[k]+1)
					}
					var runs []Run
					strip, n := section.Whole(rlo, rhi), rhi[rank-1]-rlo[rank-1]+1
					bits, set := make(Bits, (strip.NumElems()+63)/64), 0
					section.Whole(rlo, append(slices.Clone(rhi[:rank-1]), rlo[rank-1])).Elems(func(row []int) bool {
						off, _ := am.Local(p, row)
						runs = append(runs, Run{off + am.Base(p), n})
						ix := slices.Clone(row)
						for ; ix[rank-1] <= rhi[rank-1]; ix[rank-1]++ {
							if at := len(runs)*n - n + ix[rank-1] - rlo[rank-1]; ownerOf(ref, ix) == src || rng.Intn(3) == 0 {
								bits.Set(at, 1)
								set++
								mark(ix)
							}
						}
						return true
					})
					trace = append(trace, fmt.Sprintf("deliver %d of %v:%v from %d to %d", set, rlo, rhi, src, p))
					am.DeliverBits(p, src, strip, runs, 0, bits, 0, set, sc)
				case op < 4:
					gridDim, sign, width := rng.Intn(2), 1-2*rng.Intn(2), 1+rng.Intn(max(widths, 1))
					if width > widths {
						break
					}
					trace = append(trace, fmt.Sprintf("shift %v dim %d sign %+d width %d into [%d,%d)", sec, gridDim, sign, width, lo, hi))
					shiftRange(got, sec, gridDim, sign, width, lo, hi, sc, bytes)
					oracleShiftRange(want, sec, gridDim, sign, width, lo, hi)
				case op < 5:
					trace = append(trace, fmt.Sprintf("broadcast %v into [%d,%d)", sec, lo, hi))
					am.BroadcastRange(sec, lo, hi, sc)
					oracleBroadcastRange(want, sec, lo, hi, am.ArrayLayout)
				case op < 9:
					blo, bhi := box()
					trace = append(trace, fmt.Sprintf("invalidate %v:%v on %d", blo, bhi, lo))
					am.InvalidateBox(lo, blo, bhi)
					section.Whole(blo, bhi).Elems(func(ix []int) bool {
						kill(lo, ix)
						return true
					})
				}
				what := fmt.Sprintf("%v margin %d after %s", l, margin, strings.Join(trace, "; "))
				samePlanes(t, what, am, ref, want.valid)
				if err := got.CheckHulls(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				for p := 0; p < procs; p++ {
					if n := len(am.Boxes(p)) / (2 * rank); am.MostBoxes(p) < n {
						t.Fatalf("%s: processor %d lists %d boxes, the most it has is %d", what, p, n, am.MostBoxes(p))
					}
				}
				blo, bhi := box()
				held := true
				section.Whole(blo, bhi).Elems(func(ix []int) bool {
					_, in := am.Local(lo, ix)
					held = held && in && want.valid[lo][ref.Offset(ix)]
					return held
				})
				if am.Holds(lo, blo, bhi) != held {
					t.Fatalf("%s: processor %d Holds %v:%v = %v, the element scan %v", what, lo, blo, bhi, !held, held)
				}
				checkValidBits(t, what, am, ref, want.valid, lo, sc)
			}
		}
	}
}

// checkValidBits holds ValidBits against the twin's flags on processor
// p's local box and on the strided section inside it, as strips.
func checkValidBits(t *testing.T, what string, am, ref *ArrayMem, valid [][]bool, p int, sc *Scratch) {
	t.Helper()
	rank := len(am.Strides)
	lo, hi := make([]int, rank), make([]int, rank)
	for k := range lo {
		lo[k], hi[k] = am.LocalBox(p, k)
	}
	for _, strip := range []section.Section{section.Whole(lo, hi), sections(am)[1].ClipInto(lo, hi, make([]section.Dim, rank))} {
		bits, pos, set := make(Bits, (strip.NumElems()+64)/64), 1, 0
		n := am.ValidBits(p, strip, bits, 1, sc)
		strip.Elems(func(ix []int) bool {
			if valid[p][ref.Offset(ix)] {
				set++
			}
			if bits.Has(pos) != valid[p][ref.Offset(ix)] {
				t.Fatalf("%s: ValidBits of %v on processor %d says %v valid %v, the element scan %v", what, strip, p, ix, bits.Has(pos), !bits.Has(pos))
			}
			pos++
			return true
		})
		if n != set || bits.Has(0) || pos < len(bits)*64 && bits.Has(pos) {
			t.Fatalf("%s: ValidBits of %v on processor %d set %d bits, the element scan %d valid elements", what, strip, p, n, set)
		}
	}
}
