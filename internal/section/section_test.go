package section

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	tests := []struct {
		in, want Dim
	}{
		{Dim{1, 10, 1}, Dim{1, 10, 1}},
		{Dim{1, 10, 3}, Dim{1, 10, 3}}, // 1,4,7,10 — hi reached exactly
		{Dim{1, 9, 3}, Dim{1, 7, 3}},   // clamp hi to last reached
		{Dim{5, 5, 7}, Dim{5, 5, 1}},   // single point gets unit step
		{Dim{10, 1, 1}, Dim{1, 0, 1}},  // empty canonicalizes
		{Dim{1, 10, 0}, Dim{1, 10, 1}}, // non-positive step repaired
		{Dim{3, 4, 2}, Dim{3, 3, 1}},   // stride overshoots: one point
	}
	for _, tc := range tests {
		got := New(tc.in).Normalize().Dims[0]
		if got != tc.want {
			t.Errorf("Normalize(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestNumElems(t *testing.T) {
	tests := []struct {
		s    Section
		want int
	}{
		{New(Dim{1, 10, 1}), 10},
		{New(Dim{1, 10, 2}), 5},
		{New(Dim{1, 10, 3}), 4},
		{New(Dim{1, 10, 1}, Dim{1, 5, 2}), 30},
		{New(Dim{2, 1, 1}), 0},
		{Point(3, 4), 1},
		{Section{}, 0},
	}
	for _, tc := range tests {
		if got := tc.s.NumElems(); got != tc.want {
			t.Errorf("%v.NumElems() = %d, want %d", tc.s, got, tc.want)
		}
	}
}

func TestElemsMatchesNumElems(t *testing.T) {
	cases := []Section{
		New(Dim{1, 7, 2}),
		New(Dim{0, 5, 1}, Dim{2, 8, 3}),
		New(Dim{1, 1, 1}, Dim{1, 4, 1}, Dim{3, 9, 2}),
		New(Dim{5, 4, 1}),
	}
	for _, s := range cases {
		n := 0
		s.Elems(func([]int) bool { n++; return true })
		if n != s.NumElems() {
			t.Errorf("%v: enumerated %d, NumElems %d", s, n, s.NumElems())
		}
	}
}

func TestElemsEarlyStop(t *testing.T) {
	s := New(Dim{1, 100, 1})
	n := 0
	s.Elems(func([]int) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early stop after %d elems, want 5", n)
	}
}

// member reports brute-force membership of x in a normalized dim.
func member(d Dim, x int) bool {
	d = normDim(d)
	if x < d.Lo || x > d.Hi {
		return false
	}
	return (x-d.Lo)%d.Step == 0
}

func TestContainsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randDim := func() Dim {
		return Dim{Lo: rng.Intn(8), Hi: rng.Intn(16), Step: 1 + rng.Intn(4)}
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := randDim(), randDim()
		got := dimContains(normDim(a), normDim(b))
		want := true
		for x := -2; x < 20; x++ {
			if member(b, x) && !member(a, x) {
				want = false
				break
			}
		}
		if got && !want {
			t.Fatalf("dimContains(%v, %v) = true but %v has points outside %v", a, b, b, a)
		}
		// The test may be conservative (false when true), but must be
		// exact for unit strides.
		if !got && want && normDim(a).Step == 1 && normDim(b).Step == 1 {
			t.Fatalf("dimContains(%v, %v) = false but containment holds with unit strides", a, b)
		}
	}
}

func TestIntersectBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	randDim := func() Dim {
		return Dim{Lo: rng.Intn(8), Hi: rng.Intn(16), Step: 1 + rng.Intn(4)}
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := New(randDim()), New(randDim())
		got := a.Intersect(b)
		for x := -2; x < 20; x++ {
			inA := member(a.Dims[0], x)
			inB := member(b.Dims[0], x)
			inG := member(got.Dims[0], x)
			if (inA && inB) != inG {
				t.Fatalf("Intersect(%v, %v) = %v: x=%d inA=%v inB=%v inGot=%v", a, b, got, x, inA, inB, inG)
			}
		}
	}
}

// TestClip: clipping a section to a box is intersecting it with the
// box's Whole section.
func TestClip(t *testing.T) {
	s := New(Dim{1, 8, 1}, Dim{3, 7, 2})
	cl := s.Intersect(Whole([]int{2, 2}, []int{6, 6}))
	if cl.Dims[0].Lo != 2 || cl.Dims[0].Hi != 6 {
		t.Errorf("Clip dim0 = %v", cl.Dims[0])
	}
	for _, d := range cl.Dims {
		if d.Lo < 2 || d.Hi > 6 {
			t.Errorf("Clip out of range: %v", cl)
		}
	}
}

func TestEqualQuick(t *testing.T) {
	// Equality must agree with mutual containment for unit strides.
	f := func(alo, ahi, blo, bhi uint8) bool {
		a := New(Dim{int(alo % 10), int(ahi % 20), 1})
		b := New(Dim{int(blo % 10), int(bhi % 20), 1})
		eq := a.Equal(b)
		mutual := a.Contains(b) && b.Contains(a)
		return eq == mutual
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestWholeAndPoint(t *testing.T) {
	w := Whole([]int{1, 0}, []int{4, 3})
	if w.NumElems() != 16 {
		t.Errorf("Whole elems = %d", w.NumElems())
	}
	p := Point(2, 2)
	if !w.Contains(p) {
		t.Error("whole should contain interior point")
	}
	if w.Contains(Point(5, 2)) {
		t.Error("whole should not contain out-of-range point")
	}
}

// TestIntoVariantsMatch: the scratch-buffer variants enumerate and clip
// exactly as the allocating ones, in the same order, for strided and
// unnormalized sections, and allocate nothing.
func TestIntoVariantsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randDim := func() Dim {
		return Dim{Lo: rng.Intn(8), Hi: rng.Intn(14), Step: rng.Intn(4)} // Step 0 and off-lattice Hi included
	}
	idx, dims := make([]int, 2), make([]Dim, 2)
	for trial := 0; trial < 500; trial++ {
		s := New(randDim(), randDim())
		lo := []int{rng.Intn(6), rng.Intn(6)}
		hi := []int{lo[0] + rng.Intn(8) - 1, lo[1] + rng.Intn(8) - 1}
		want := [][2]int{}
		s.Intersect(Whole(lo, hi)).Elems(func(ix []int) bool {
			want = append(want, [2]int{ix[0], ix[1]})
			return true
		})
		got := [][2]int{}
		s.ClipInto(lo, hi, dims).ElemsInto(idx, func(ix []int) bool {
			got = append(got, [2]int{ix[0], ix[1]})
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("%v clipped to %v:%v: %d elements, want %d", s, lo, hi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v clipped to %v:%v: element %d is %v, want %v", s, lo, hi, i, got[i], want[i])
			}
		}
	}
	s := New(Dim{1, 20, 3}, Dim{2, 9, 1})
	n := 0
	if a := testing.AllocsPerRun(10, func() {
		s.ClipInto([]int{3, 3}, []int{15, 7}, dims).ElemsInto(idx, func([]int) bool { n++; return true })
	}); a > 2 { // the two box literals
		t.Errorf("ClipInto+ElemsInto allocated %v times per run", a)
	}
}
