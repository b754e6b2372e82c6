// Package section implements regular array section descriptors (RSDs):
// per-dimension triplets lo:hi:step describing rectangular, strided
// subsections of Fortran-style arrays. Sections are the "D" component of
// the Available Section Descriptors (ASDs) of Gupta, Schonberg and
// Srinivasan that the placement algorithm of Chakrabarti, Gupta and Choi
// (PLDI 1996) manipulates, once bound to concrete extents: the placement
// analysis works on their symbolic form (asd.SymSection, whose Hull is
// message combining's bounded union), and the execution layers clip,
// intersect and enumerate the concrete sections here.
//
// All bounds are inclusive, matching Fortran triplet notation. A
// dimension with Lo > Hi is empty, and a section with any empty
// dimension is empty.
package section

import (
	"fmt"
	"strings"
)

// Dim is a single dimension of a section: the triplet Lo:Hi:Step with
// inclusive bounds. Step must be >= 1 for non-empty dimensions.
type Dim struct {
	Lo, Hi, Step int
}

// Section is a rectangular, possibly strided array section. The zero
// value is the empty zero-dimensional section.
type Section struct {
	Dims []Dim
}

// Whole returns the section covering an entire array with the given
// inclusive per-dimension bounds [lo[i], hi[i]].
func Whole(lo, hi []int) Section { return WholeInto(lo, hi, make([]Dim, len(lo))) }

// WholeInto is Whole, written into d (len(d) == len(lo)).
func WholeInto(lo, hi []int, d []Dim) Section {
	if len(lo) != len(hi) || len(d) != len(lo) {
		// Unreachable from input: the callers pass a declared array's
		// bounds, one pair per dimension, or Clip's checked box.
		panic("section: Whole: mismatched bound ranks")
	}
	for i := range lo {
		d[i] = Dim{Lo: lo[i], Hi: hi[i], Step: 1}
	}
	return Section{Dims: d}
}

// normDim canonicalizes one dimension: an empty range becomes the
// canonical empty dim, a single-point range gets Step 1, and Hi is
// clamped down to the last element actually reached by the stride.
func normDim(d Dim) Dim {
	if d.Step <= 0 {
		d.Step = 1
	}
	if d.Lo > d.Hi {
		return Dim{Lo: 1, Hi: 0, Step: 1}
	}
	n := (d.Hi - d.Lo) / d.Step
	d.Hi = d.Lo + n*d.Step
	if d.Lo == d.Hi {
		d.Step = 1
	}
	return d
}

// IsEmpty reports whether the section contains no elements. A rank-0
// section is considered empty.
func (s Section) IsEmpty() bool {
	if len(s.Dims) == 0 {
		return true
	}
	for _, d := range s.Dims {
		if d.Lo > d.Hi {
			return true
		}
	}
	return false
}

// NumElems returns the number of elements in the section.
func (s Section) NumElems() int {
	if s.IsEmpty() {
		return 0
	}
	n := 1
	for _, d := range s.Dims {
		dd := normDim(d)
		n *= (dd.Hi-dd.Lo)/dd.Step + 1
	}
	return n
}

// gcd of two non-negative ints.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// dimIntersect intersects two normalized dims exactly: the overlap of
// their ranges when both strides are 1, else the lattice both strides
// share from its first point in that overlap, empty when there is none.
func dimIntersect(a, b Dim) Dim {
	if a.Lo > a.Hi || b.Lo > b.Hi {
		return Dim{Lo: 1, Hi: 0, Step: 1}
	}
	lo := max(a.Lo, b.Lo)
	hi := min(a.Hi, b.Hi)
	if lo > hi {
		return Dim{Lo: 1, Hi: 0, Step: 1}
	}
	if a.Step == 1 && b.Step == 1 {
		return Dim{Lo: lo, Hi: hi, Step: 1}
	}
	// Solve x ≡ a.Lo (mod a.Step), x ≡ b.Lo (mod b.Step) by search over
	// one period; strides in compiler-generated sections are tiny.
	step := a.Step / gcd(a.Step, b.Step) * b.Step
	for x := lo; x < lo+step && x <= hi; x++ {
		if (x-a.Lo)%a.Step == 0 && (x-b.Lo)%b.Step == 0 {
			return normDim(Dim{Lo: x, Hi: hi, Step: step})
		}
	}
	return Dim{Lo: 1, Hi: 0, Step: 1}
}

// ClipInto restricts the section to the box [lo, hi] (inclusive), each
// dimension as Dim.Intersect does, with the result's dimensions written
// into dst (len >= rank) instead of allocated; the rank is kept even
// when the result is empty.
func (s Section) ClipInto(lo, hi []int, dst []Dim) Section {
	if len(lo) != len(s.Dims) || len(hi) != len(s.Dims) {
		// Unreachable from input: plan clips a reference's section to its
		// array's bounds or strip box, and sem rejects a reference whose
		// subscript count is not the array's rank.
		panic("section: ClipInto: rank mismatch")
	}
	dst = dst[:len(s.Dims)]
	for i, d := range s.Dims {
		dst[i] = d.Intersect(Dim{Lo: lo[i], Hi: hi[i], Step: 1})
	}
	return Section{Dims: dst}
}

// Intersect returns the exact intersection of two dimensions, strides
// included, in canonical form.
func (d Dim) Intersect(o Dim) Dim {
	return normDim(dimIntersect(normDim(d), normDim(o)))
}

// String renders the section in Fortran triplet notation.
func (s Section) String() string {
	if len(s.Dims) == 0 {
		return "()"
	}
	var b strings.Builder
	b.WriteByte('(')
	for i, d := range s.Dims {
		if i > 0 {
			b.WriteByte(',')
		}
		if d.Lo > d.Hi {
			b.WriteString("empty")
			continue
		}
		if d.Lo == d.Hi {
			fmt.Fprintf(&b, "%d", d.Lo)
			continue
		}
		fmt.Fprintf(&b, "%d:%d", d.Lo, d.Hi)
		if d.Step != 1 {
			fmt.Fprintf(&b, ":%d", d.Step)
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Elems enumerates all element index vectors of the section in
// row-major order, calling f for each. f must not retain the slice.
// Enumeration stops early if f returns false.
func (s Section) Elems(f func(idx []int) bool) {
	s.ElemsInto(make([]int, len(s.Dims)), f)
}

// ElemsInto is Elems with the index vector kept in the caller's buffer
// (len >= rank), so repeated enumerations allocate nothing. Strides
// below 1 count as 1 and Hi need not lie on the lattice, as in
// normDim.
func (s Section) ElemsInto(idx []int, f func(idx []int) bool) {
	if s.IsEmpty() {
		return
	}
	idx = idx[:len(s.Dims)]
	for i, d := range s.Dims {
		idx[i] = d.Lo
	}
	for {
		if !f(idx) {
			return
		}
		// Advance the last dimension fastest.
		k := len(idx) - 1
		for k >= 0 {
			d := &s.Dims[k]
			idx[k] += max(d.Step, 1)
			if idx[k] <= d.Hi {
				break
			}
			idx[k] = d.Lo
			k--
		}
		if k < 0 {
			return
		}
	}
}
