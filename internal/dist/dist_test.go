package dist

import (
	"slices"
	"testing"
	"testing/quick"
)

func mustGrid(t *testing.T, shape ...int) Grid {
	t.Helper()
	g, err := NewGrid(shape...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// slab is the dimensions' slab New carves a distribution of n dimensions
// from.
func slab(n int) *[]DimDist {
	s := make([]DimDist, n)
	return &s
}

func TestGridCoordsRoundTrip(t *testing.T) {
	g := mustGrid(t, 3, 4, 2)
	if g.NumProcs() != 24 {
		t.Fatalf("NumProcs = %d", g.NumProcs())
	}
	for pid := 0; pid < g.NumProcs(); pid++ {
		if back := g.PID(g.CoordsInto(pid, make([]int, g.Rank()))); back != pid {
			t.Fatalf("PID(Coords(%d)) = %d", pid, back)
		}
	}
}

func TestSquareGrid(t *testing.T) {
	cases := map[int][2]int{
		1:  {1, 1},
		4:  {2, 2},
		8:  {2, 4},
		9:  {3, 3},
		25: {5, 5},
		12: {3, 4},
		7:  {1, 7}, // prime: degenerate but valid
	}
	for p, want := range cases {
		g, err := SquareGrid(p)
		if err != nil {
			t.Fatal(err)
		}
		if g.Shape[0] != want[0] || g.Shape[1] != want[1] {
			t.Errorf("SquareGrid(%d) = %v, want %v", p, g.Shape, want)
		}
	}
	if _, err := SquareGrid(0); err == nil {
		t.Error("SquareGrid(0) must fail")
	}
}

func TestBlockOwnership(t *testing.T) {
	g := mustGrid(t, 3)
	d, err := New(g, []int{1}, []int{10}, slab(1), Block)
	if err != nil {
		t.Fatal(err)
	}
	// Block size ceil(10/3) = 4: blocks 1-4, 5-8, 9-10.
	wantOwners := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2}
	for i := 1; i <= 10; i++ {
		if got := d.OwnerDim(0, i); got != wantOwners[i-1] {
			t.Errorf("OwnerDim(%d) = %d, want %d", i, got, wantOwners[i-1])
		}
	}
	lo, hi, ok := d.LocalRange(0, 2)
	if !ok || lo != 9 || hi != 10 {
		t.Errorf("LocalRange(2) = %d..%d, %v", lo, hi, ok)
	}
}

// Property: for BLOCK distributions, every index is owned by exactly
// the coordinate whose LocalRange contains it, and the ranges' lengths
// sum to the extent.
func TestBlockPartitionProperty(t *testing.T) {
	f := func(np, nu uint8) bool {
		p := int(np%6) + 1
		n := int(nu%40) + p
		g, err := NewGrid(p)
		if err != nil {
			return false
		}
		d, err := New(g, []int{0}, []int{n - 1}, slab(1), Block)
		if err != nil {
			return false
		}
		total := 0
		for c := 0; c < p; c++ {
			lo, hi, ok := d.LocalRange(0, c)
			if !ok {
				continue
			}
			total += hi - lo + 1
			for x := lo; x <= hi; x++ {
				if d.OwnerDim(0, x) != c {
					return false
				}
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCyclicOwnership(t *testing.T) {
	g := mustGrid(t, 4)
	d, err := New(g, []int{1}, []int{10}, slab(1), Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if got, want := d.OwnerDim(0, i), (i-1)%4; got != want {
			t.Errorf("cyclic OwnerDim(%d) = %d, want %d", i, got, want)
		}
	}
	// The covering range starts at the coordinate's first element.
	if lo, hi, ok := d.LocalRange(0, 3); !ok || lo != 4 || hi != 10 {
		t.Errorf("cyclic LocalRange(3) = %d..%d, %v", lo, hi, ok)
	}
}

func TestMultiDimOwner(t *testing.T) {
	g := mustGrid(t, 2, 3)
	d, err := New(g, []int{1, 1, 1}, []int{4, 8, 9}, slab(3), Star, Block, Block)
	if err != nil {
		t.Fatal(err)
	}
	if want := []DimDist{{Star, 0}, {Block, 0}, {Block, 1}}; !slices.Equal(d.Dims, want) {
		t.Fatalf("Dims = %v, want %v", d.Dims, want)
	}
	// dim1 extent 8 over 2 -> blocks of 4; dim2 extent 9 over 3 -> 3.
	own := d.Owner([]int{3, 5, 7})
	coords := g.CoordsInto(own, make([]int, g.Rank()))
	if coords[0] != 1 || coords[1] != 2 {
		t.Errorf("Owner coords = %v, want [1 2]", coords)
	}
}

func TestSameLayout(t *testing.T) {
	g := mustGrid(t, 2, 2)
	a, _ := New(g, []int{1, 1}, []int{8, 8}, slab(2), Block, Block)
	b, _ := New(g, []int{1, 1}, []int{8, 8}, slab(2), Block, Block)
	c, _ := New(g, []int{1, 1}, []int{8, 9}, slab(2), Block, Block)
	if !a.SameLayout(b) {
		t.Error("identical layouts should compare equal")
	}
	if a.SameLayout(c) {
		t.Error("different extents should not compare equal")
	}
	// A 3-d array with a leading star dim and the same distributed
	// bounds is not SameLayout (rank differs), by design.
	d3, _ := New(g, []int{1, 1, 1}, []int{5, 8, 8}, slab(3), Star, Block, Block)
	if a.SameLayout(d3) {
		t.Error("rank mismatch should not compare equal")
	}
}

func TestNewValidation(t *testing.T) {
	g := mustGrid(t, 2, 2)
	if _, err := New(g, []int{1}, []int{4, 5}, slab(1), Block); err == nil {
		t.Error("mismatched bounds rank must fail")
	}
	if _, err := New(g, []int{1, 1, 1}, []int{4, 4, 4}, slab(3), Block, Block, Block); err == nil {
		t.Error("three distributed dims on a 2-d grid must fail")
	}
	if _, err := NewGrid(); err == nil {
		t.Error("empty grid must fail")
	}
	if _, err := NewGrid(0); err == nil {
		t.Error("zero-size grid must fail")
	}
}
