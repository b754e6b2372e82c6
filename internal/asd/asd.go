// Package asd implements Available Section Descriptors — the (D, M)
// pairs of Gupta, Schonberg and Srinivasan that the paper's placement
// algorithm manipulates (§4.6): D is the array section being
// communicated, and M is the mapping from data to the processors that
// receive it. Redundancy elimination needs the subsumption test
// ((D1,M1) is redundant given (D2,M2) when D1 ⊆ D2 and M1(D1) ⊆
// M2(D1)); message combining needs the compatibility test (mappings
// identical or one a subset of the other, §4.7).
//
// Sections here are symbolic: their bounds are affine forms over the
// loop variables enclosing the communication point, so a descriptor
// like g(i−1, 1:n) compares exactly against g(i−1, 1:n:2) with the
// outer i still unbound.
package asd

import (
	"fmt"
	"strings"

	"gcao/internal/lin"
	"gcao/internal/section"
)

// SymDim is one dimension of a symbolic section: Lo:Hi:Step with
// affine bounds and a constant step.
type SymDim struct {
	Lo, Hi lin.Form
	Step   int
}

// Point builds a degenerate symbolic dimension holding one element.
func Point(f lin.Form) SymDim { return SymDim{Lo: f, Hi: f, Step: 1} }

// ConstDim builds a constant-bound dimension.
func ConstDim(lo, hi, step int) SymDim {
	return SymDim{Lo: lin.ConstForm(lo), Hi: lin.ConstForm(hi), Step: step}
}

// IsPoint reports whether the dimension provably holds one element.
func (d SymDim) IsPoint() bool { return d.Lo.Equal(d.Hi) }

// Count returns the element count when the bounds are constant.
func (d SymDim) Count() (int, bool) {
	lo, ok1 := d.Lo.IsConst()
	hi, ok2 := d.Hi.IsConst()
	if !ok1 || !ok2 {
		if d.IsPoint() {
			return 1, true
		}
		return 0, false
	}
	if lo > hi {
		return 0, true
	}
	step := d.Step
	if step < 1 {
		step = 1
	}
	return (hi-lo)/step + 1, true
}

func (d SymDim) String() string {
	if d.IsPoint() {
		return d.Lo.String()
	}
	s := d.Lo.String() + ":" + d.Hi.String()
	if d.Step != 1 {
		s += fmt.Sprintf(":%d", d.Step)
	}
	return s
}

// SymSection is a symbolic regular section.
type SymSection struct {
	Dims []SymDim
}

// Rank returns the number of dimensions.
func (s SymSection) Rank() int { return len(s.Dims) }

func (s SymSection) String() string {
	parts := make([]string, len(s.Dims))
	for i, d := range s.Dims {
		parts[i] = d.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Equal reports provable element-set equality.
func (s SymSection) Equal(t SymSection) bool {
	if len(s.Dims) != len(t.Dims) {
		return false
	}
	for i := range s.Dims {
		a, b := s.Dims[i], t.Dims[i]
		if !a.Lo.Equal(b.Lo) || !a.Hi.Equal(b.Hi) {
			return false
		}
		if a.IsPoint() && b.IsPoint() {
			continue
		}
		if a.Step != b.Step {
			return false
		}
	}
	return true
}

// Contains conservatively reports whether s ⊇ t is provable: per
// dimension the bound differences must be constants of the right sign
// and the strides must nest.
func (s SymSection) Contains(t SymSection) bool {
	if len(s.Dims) != len(t.Dims) {
		return false
	}
	for i := range s.Dims {
		a, b := s.Dims[i], t.Dims[i]
		dlo, ok := b.Lo.ConstDiff(a.Lo)
		if !ok || dlo < 0 {
			return false
		}
		dhi, ok := a.Hi.ConstDiff(b.Hi)
		if !ok || dhi < 0 {
			return false
		}
		astep := a.Step
		if astep < 1 {
			astep = 1
		}
		if dlo%astep != 0 {
			return false
		}
		if b.IsPoint() {
			continue
		}
		bstep := b.Step
		if bstep < 1 {
			bstep = 1
		}
		if bstep%astep != 0 {
			return false
		}
	}
	return true
}

// Hull returns the smallest single symbolic descriptor provably
// covering s and t, and the multiplicative blow-up of its element
// count versus |s| + |t| when all counts are constant. ok=false when
// the bounds are not comparable (non-constant differences), in which
// case the sections cannot be combined into one descriptor.
func (s SymSection) Hull(t SymSection) (hull SymSection, blowup float64, ok bool) {
	if len(s.Dims) != len(t.Dims) {
		return SymSection{}, 0, false
	}
	hull.Dims = make([]SymDim, len(s.Dims))
	for i := range s.Dims {
		if hull.Dims[i], ok = hullDim(s.Dims[i], t.Dims[i]); !ok {
			return SymSection{}, 0, false
		}
	}
	nh, okh := hull.NumElems()
	ns, oks := s.NumElems()
	nt, okt := t.NumElems()
	return hull, Blowup(nh, ns+nt, okh && oks && okt), true
}

// Blowup is a hull's element count over the total of the two sections
// it covers, or 1 when a count is unknown or the total is zero (the
// caller's rule of thumb then applies).
func Blowup(hull, total int, known bool) float64 {
	if known && total > 0 {
		return float64(hull) / float64(total)
	}
	return 1
}

// HullCount is Hull without the descriptor, for callers that only weigh
// the hull: its element count, known when every dimension's count is
// constant, and ok=false where Hull has no hull.
func (s SymSection) HullCount(t SymSection) (n int, known, ok bool) {
	if len(s.Dims) != len(t.Dims) {
		return 0, false, false
	}
	n, known = 1, true
	for i := range s.Dims {
		d, okd := hullDim(s.Dims[i], t.Dims[i])
		if !okd {
			return 0, false, false
		}
		if c, okc := d.Count(); !okc {
			known = false
		} else if known {
			n *= c
		}
	}
	if !known {
		n = 0
	}
	return n, known, true
}

// hullDim is one dimension of Hull: the outer bounds and the coarsest
// stride both dimensions' lattices share. ok=false when a bound
// difference is not constant.
func hullDim(a, b SymDim) (SymDim, bool) {
	lo := a.Lo
	if d, okd := b.Lo.ConstDiff(a.Lo); !okd {
		return SymDim{}, false
	} else if d < 0 {
		lo = b.Lo
	}
	hi := a.Hi
	if d, okd := b.Hi.ConstDiff(a.Hi); !okd {
		return SymDim{}, false
	} else if d > 0 {
		hi = b.Hi
	}
	step := gcd(maxInt(a.Step, 1), maxInt(b.Step, 1))
	// The strides must share phase; otherwise fall back to unit
	// stride (a denser hull).
	if d, okd := a.Lo.ConstDiff(b.Lo); !okd || d%step != 0 {
		step = 1
	}
	return SymDim{Lo: lo, Hi: hi, Step: step}, true
}

// NumElems returns the element count when every dimension is constant
// (point dimensions count 1 even when symbolic).
func (s SymSection) NumElems() (int, bool) {
	n := 1
	for _, d := range s.Dims {
		c, ok := d.Count()
		if !ok {
			return 0, false
		}
		n *= c
	}
	return n, true
}

// Concrete evaluates the section under an environment binding the
// remaining symbolic variables.
func (s SymSection) Concrete(env map[string]int) (section.Section, bool) {
	out := section.Section{Dims: make([]section.Dim, len(s.Dims))}
	for i, d := range s.Dims {
		lo, ok1 := d.Lo.Eval(env)
		hi, ok2 := d.Hi.Eval(env)
		if !ok1 || !ok2 {
			return section.Section{}, false
		}
		step := d.Step
		if step < 1 {
			step = 1
		}
		out.Dims[i] = section.Dim{Lo: lo, Hi: hi, Step: step}
	}
	return out.Normalize(), true
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MapKind classifies communication mappings.
type MapKind int

const (
	// MapShift is nearest-neighbour communication along one processor
	// grid dimension: every processor receives a ghost strip of Width
	// elements from the neighbour in direction Sign.
	MapShift MapKind = iota
	// MapReduce is a global reduction (the result is combined across
	// processors and made available everywhere).
	MapReduce
	// MapBcast replicates data owned by one processor (or one grid
	// slice) to all.
	MapBcast
	// MapGeneral is any other many-to-many pattern (transposes,
	// layout-changing copies); equality is by canonical signature.
	MapGeneral
)

func (k MapKind) String() string {
	switch k {
	case MapShift:
		return "shift"
	case MapReduce:
		return "reduce"
	case MapBcast:
		return "bcast"
	case MapGeneral:
		return "general"
	}
	return fmt.Sprintf("MapKind(%d)", int(k))
}

// Mapping is the M component of an ASD: the sender→receiver relation
// in (virtual) processor space. GridShape identifies the processor
// arrangement; two mappings on different arrangements never compare.
type Mapping struct {
	Kind      MapKind
	GridShape []int
	// Shift fields.
	GridDim int // which grid dimension the shift moves along
	Sign    int // +1: data moves toward higher coords; -1: lower
	Width   int // ghost strip width in elements
	// Signature canonicalizes MapBcast and MapGeneral patterns.
	Signature string
}

func (m Mapping) sameGrid(o Mapping) bool {
	if len(m.GridShape) != len(o.GridShape) {
		return false
	}
	if len(m.GridShape) == 0 || &m.GridShape[0] == &o.GridShape[0] {
		return true // one routine's mappings share its grid's shape
	}
	for i := range m.GridShape {
		if m.GridShape[i] != o.GridShape[i] {
			return false
		}
	}
	return true
}

// Equal reports identical sender–receiver relations.
func (m Mapping) Equal(o Mapping) bool {
	if m.Kind != o.Kind || !m.sameGrid(o) {
		return false
	}
	switch m.Kind {
	case MapShift:
		return m.GridDim == o.GridDim && m.Sign == o.Sign && m.Width == o.Width
	case MapReduce:
		return true
	default:
		return m.Signature == o.Signature
	}
}

// SubsetOf reports M(D) ⊆ O(D): every transfer m performs is also
// performed by o. For shifts this holds when both move along the same
// grid dimension in the same direction and o's strip is at least as
// wide (the paper's "one pattern is a subset of another").
func (m Mapping) SubsetOf(o Mapping) bool {
	if m.Kind != o.Kind || !m.sameGrid(o) {
		return false
	}
	switch m.Kind {
	case MapShift:
		return m.GridDim == o.GridDim && m.Sign == o.Sign && m.Width <= o.Width
	case MapReduce:
		return true
	default:
		return m.Signature == o.Signature
	}
}

// CompatibleWith reports whether two communications may be combined
// into one message: identical relations or one a subset of the other
// (§4.7: "communications for (D1,M1) and (D2,M2) are combined only if
// M1 = M2 or M1 ⊂ M2").
func (m Mapping) CompatibleWith(o Mapping) bool {
	return m.SubsetOf(o) || o.SubsetOf(m)
}

// Union returns the coarser of two compatible mappings.
func (m Mapping) Union(o Mapping) Mapping {
	if m.SubsetOf(o) {
		return o
	}
	return m
}

func (m Mapping) String() string {
	switch m.Kind {
	case MapShift:
		dir := "+"
		if m.Sign < 0 {
			dir = "-"
		}
		return fmt.Sprintf("shift[dim%d%s%d]", m.GridDim, dir, m.Width)
	case MapReduce:
		return "reduce"
	default:
		return fmt.Sprintf("%s[%s]", m.Kind, m.Signature)
	}
}

// ASD is an Available Section Descriptor: the data D (a symbolic
// section of a named array) and the mapping M.
type ASD struct {
	Array string
	Data  SymSection
	Map   Mapping
}

// Subsumes reports whether this descriptor makes other redundant:
// same array, other's data contained, and other's mapping a subset —
// the (D1 ⊆ D2) ∧ (M1(D1) ⊆ M2(D1)) test of §4.6.
func (a ASD) Subsumes(other ASD) bool {
	return a.Array == other.Array &&
		other.Map.SubsetOf(a.Map) &&
		a.Data.Contains(other.Data)
}

func (a ASD) String() string {
	return fmt.Sprintf("%s%s via %s", a.Array, a.Data, a.Map)
}
