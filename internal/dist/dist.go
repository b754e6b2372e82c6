// Package dist models HPF data distributions: processor grids, and
// per-dimension BLOCK / CYCLIC / * (collapsed) distributions of arrays
// onto those grids. It answers the questions the communication
// analysis and the SPMD runtime need: which processor owns an element,
// which contiguous local range a processor holds, and how wide the
// overlap (ghost) region must be for a given nearest-neighbour shift.
//
// The paper's benchmarks use (BLOCK,BLOCK) for 2-d arrays and
// (*,BLOCK,BLOCK) for 3-d arrays on a square processor grid, so BLOCK
// is the workhorse here; CYCLIC is implemented for completeness of the
// substrate and exercised by tests.
package dist

import (
	"fmt"
	"strings"

	"gcao/internal/heapsize"
)

// Kind is the per-dimension distribution kind.
type Kind int

const (
	// Star means the dimension is collapsed: every processor holds the
	// whole extent (HPF "*").
	Star Kind = iota
	// Block divides the dimension into one contiguous chunk per
	// processor-grid dimension element.
	Block
	// Cyclic deals elements round-robin.
	Cyclic
)

func (k Kind) String() string {
	switch k {
	case Star:
		return "*"
	case Block:
		return "BLOCK"
	case Cyclic:
		return "CYCLIC"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Grid is a Cartesian processor arrangement, e.g. 5x5 for P=25.
type Grid struct {
	// Shape holds the extent of each grid dimension.
	Shape []int
}

// NewGrid validates and builds a processor grid.
func NewGrid(shape ...int) (Grid, error) {
	if len(shape) == 0 {
		return Grid{}, fmt.Errorf("dist: empty grid shape")
	}
	for _, s := range shape {
		if s < 1 {
			return Grid{}, fmt.Errorf("dist: grid dimension %d < 1", s)
		}
	}
	return Grid{Shape: append([]int(nil), shape...)}, nil
}

// SquareGrid builds the most-square 2-d grid with p processors,
// matching how pHPF lays out (BLOCK,BLOCK) arrays. p must have an
// integer factorization; we pick factors as close as possible.
func SquareGrid(p int) (Grid, error) {
	if p < 1 {
		return Grid{}, fmt.Errorf("dist: %d processors", p)
	}
	best := 1
	for f := 1; f*f <= p; f++ {
		if p%f == 0 {
			best = f
		}
	}
	return NewGrid(best, p/best)
}

// NumProcs returns the total processor count of the grid.
func (g Grid) NumProcs() int {
	n := 1
	for _, s := range g.Shape {
		n *= s
	}
	return n
}

// Rank returns the grid dimensionality.
func (g Grid) Rank() int { return len(g.Shape) }

// CoordsInto converts a linear processor id to grid coordinates
// (row-major: the last dimension varies fastest), written into the
// caller's buffer (len >= grid rank) so the path does not allocate.
func (g Grid) CoordsInto(pid int, c []int) []int {
	c = c[:len(g.Shape)]
	for i := len(g.Shape) - 1; i >= 0; i-- {
		c[i] = pid % g.Shape[i]
		pid /= g.Shape[i]
	}
	return c
}

// PID converts grid coordinates back to a linear processor id.
func (g Grid) PID(coords []int) int {
	if len(coords) != len(g.Shape) {
		// Unreachable from input: Owner sizes coords by the rank of the
		// distribution's grid.
		panic("dist: PID: coordinate rank mismatch")
	}
	id := 0
	for i, c := range coords {
		if c < 0 || c >= g.Shape[i] {
			// Unreachable from input: plan checks a subscript against the
			// declared bounds (ArrayRef.Offset, Nest.Enter) before it asks
			// for its owner, and OwnerDim maps an in-bounds index in range.
			panic(fmt.Sprintf("dist: PID: coordinate %d out of range [0,%d)", c, g.Shape[i]))
		}
		id = id*g.Shape[i] + c
	}
	return id
}

// Stride returns what a step along grid dimension dim adds to a linear
// processor id: pid/Stride(dim)%Shape[dim] is its coordinate there.
func (g Grid) Stride(dim int) int {
	stride := 1
	for _, n := range g.Shape[dim+1:] {
		stride *= n
	}
	return stride
}

// Neighbor returns the processor delta steps from pid along grid
// dimension dim, -1 past the edge of the (non-periodic) grid.
func (g Grid) Neighbor(pid, dim, delta int) int {
	stride := g.Stride(dim)
	if c := pid/stride%g.Shape[dim] + delta; c < 0 || c >= g.Shape[dim] {
		return -1
	}
	return pid + delta*stride
}

func (g Grid) String() string {
	parts := make([]string, len(g.Shape))
	for i, s := range g.Shape {
		parts[i] = fmt.Sprint(s)
	}
	return "P(" + strings.Join(parts, ",") + ")"
}

// DimDist is the distribution of one array dimension.
type DimDist struct {
	Kind Kind
	// GridDim is the processor-grid dimension this array dimension is
	// mapped to; meaningful only for Block and Cyclic.
	GridDim int
}

// Dist is a complete distribution of an array onto a grid.
type Dist struct {
	Grid Grid
	// Dims has one entry per array dimension.
	Dims []DimDist
	// Lo and Hi are the array's inclusive declared bounds per dimension.
	Lo, Hi []int
}

// New builds and validates a distribution. kinds uses one entry per
// array dimension; distributed dimensions are assigned to grid
// dimensions in order (first distributed dim -> grid dim 0, etc.),
// which matches the HPF default and the paper's benchmark layouts.
//
// The distribution keeps lo and hi, and g's shape, as its own: the
// caller must not write to them afterwards (sem hands it an array's
// declared bounds, which nothing writes once declared). Dims is carved
// from *slab, which the caller made once for all of its distributions'
// dimensions (sem counts them) and which holds len(kinds) more at least.
func New(g Grid, lo, hi []int, slab *[]DimDist, kinds ...Kind) (Dist, error) {
	if len(lo) != len(kinds) || len(hi) != len(kinds) {
		return Dist{}, fmt.Errorf("dist: bounds rank %d/%d vs %d kinds", len(lo), len(hi), len(kinds))
	}
	n := len(kinds)
	d := Dist{Grid: g, Lo: lo[:n:n], Hi: hi[:n:n]}
	d.Dims = heapsize.Take(slab, n)
	gd := 0
	for i, k := range kinds {
		d.Dims[i].Kind = k
		if k != Star {
			if gd >= g.Rank() {
				return Dist{}, fmt.Errorf("dist: more distributed dims than grid dims (%d)", g.Rank())
			}
			d.Dims[i].GridDim = gd
			gd++
		}
	}
	if gd != g.Rank() && gd != 0 {
		// Allow using a prefix of the grid only if the remaining grid
		// dims are size 1; otherwise the mapping is ambiguous.
		for i := gd; i < g.Rank(); i++ {
			if g.Shape[i] != 1 {
				return Dist{}, fmt.Errorf("dist: %d distributed dims on grid %v", gd, g)
			}
		}
	}
	return d, nil
}

// Rank returns the array dimensionality.
func (d *Dist) Rank() int { return len(d.Dims) }

// Extent returns the declared number of elements in array dim i.
func (d *Dist) Extent(i int) int { return d.Hi[i] - d.Lo[i] + 1 }

// blockSize returns the ceiling block size for dimension i.
func (d *Dist) blockSize(i int) int {
	p := d.Grid.Shape[d.Dims[i].GridDim]
	n := d.Extent(i)
	return (n + p - 1) / p
}

// OwnerDim returns the grid coordinate (in the dimension's grid dim)
// owning array index x of dimension i. For Star dims it returns 0.
func (d *Dist) OwnerDim(i, x int) int {
	dd := d.Dims[i]
	switch dd.Kind {
	case Star:
		return 0
	case Block:
		b := d.blockSize(i)
		c := (x - d.Lo[i]) / b
		p := d.Grid.Shape[dd.GridDim]
		if c >= p {
			c = p - 1
		}
		return c
	case Cyclic:
		p := d.Grid.Shape[dd.GridDim]
		return ((x-d.Lo[i])%p + p) % p
	}
	// Unreachable from input: sem, the only caller of New, maps the
	// parser's three DISTRIBUTE keywords onto the three kinds.
	panic("dist: unknown kind")
}

// Owner returns the linear processor id owning the element at idx.
func (d *Dist) Owner(idx []int) int {
	if len(idx) != d.Rank() {
		// Unreachable from input: the lowered program never calls Owner
		// (runtime's ownership tables answer it); tests do.
		panic("dist: Owner: rank mismatch")
	}
	coords := make([]int, d.Grid.Rank())
	for i, dd := range d.Dims {
		if dd.Kind == Star {
			continue
		}
		coords[dd.GridDim] = d.OwnerDim(i, idx[i])
	}
	return d.Grid.PID(coords)
}

// LocalRange returns the inclusive index range of dimension i owned by
// the processor whose coordinate in that dimension's grid dim is c.
// For Star dims the whole extent is returned. ok is false when the
// processor owns nothing in that dimension (possible with uneven
// blocks).
func (d *Dist) LocalRange(i, c int) (lo, hi int, ok bool) {
	dd := d.Dims[i]
	switch dd.Kind {
	case Star:
		return d.Lo[i], d.Hi[i], true
	case Block:
		b := d.blockSize(i)
		lo = d.Lo[i] + c*b
		hi = lo + b - 1
		if hi > d.Hi[i] {
			hi = d.Hi[i]
		}
		return lo, hi, lo <= hi
	case Cyclic:
		// Cyclic local sets are strided, not contiguous; report the
		// covering range. Callers needing exact membership use OwnerDim.
		if c >= d.Extent(i) {
			return 0, -1, false
		}
		return d.Lo[i] + c, d.Hi[i], true
	}
	// Unreachable from input: sem, the only caller of New, maps the
	// parser's three DISTRIBUTE keywords onto the three kinds.
	panic("dist: unknown kind")
}

// SameLayout reports whether two distributions partition index space
// identically: same grid, same kinds, same grid-dim assignment and the
// same bounds on distributed dimensions. Arrays with the same layout
// can have their nearest-neighbour messages combined (identical
// sender–receiver mapping), which is the Fig. 1 / Fig. 3 combining
// condition.
func (d *Dist) SameLayout(o Dist) bool {
	if d.Rank() != o.Rank() || d.Grid.Rank() != o.Grid.Rank() {
		return false
	}
	for i, s := range d.Grid.Shape {
		if o.Grid.Shape[i] != s {
			return false
		}
	}
	for i := range d.Dims {
		if d.Dims[i] != o.Dims[i] {
			return false
		}
		if d.Dims[i].Kind != Star {
			if d.Lo[i] != o.Lo[i] || d.Hi[i] != o.Hi[i] {
				return false
			}
		}
	}
	return true
}

func (d *Dist) String() string {
	parts := make([]string, len(d.Dims))
	for i, dd := range d.Dims {
		parts[i] = dd.Kind.String()
	}
	return "(" + strings.Join(parts, ",") + ") onto " + d.Grid.String()
}
