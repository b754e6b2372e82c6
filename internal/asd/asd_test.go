package asd

import (
	"math/rand"
	"testing"

	"gcao/internal/lin"
)

func i(v int) lin.Form      { return lin.ConstForm(v) }
func sym(n string) lin.Form { return lin.Var(n) }

func TestSymDimCount(t *testing.T) {
	cases := []struct {
		d    SymDim
		want int
		ok   bool
	}{
		{ConstDim(1, 10, 1), 10, true},
		{ConstDim(1, 10, 3), 4, true},
		{ConstDim(5, 4, 1), 0, true},
		{Point(sym("i")), 1, true},
		{SymDim{Lo: sym("i"), Hi: sym("i").AddConst(3), Step: 1}, 0, false},
	}
	for _, tc := range cases {
		got, ok := tc.d.Count()
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("Count(%v) = %d, %v; want %d, %v", tc.d, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSymSectionEqualAndContains(t *testing.T) {
	a := SymSection{Dims: []SymDim{Point(sym("i").AddConst(-1)), ConstDim(1, 10, 1)}}
	b := SymSection{Dims: []SymDim{Point(sym("i").AddConst(-1)), ConstDim(1, 10, 2)}}
	if a.Equal(b) {
		t.Error("different strides are not equal")
	}
	if !a.Contains(b) {
		t.Error("unit-stride dim contains stride-2 dim with same bounds")
	}
	if b.Contains(a) {
		t.Error("stride-2 dim must not contain unit-stride dim")
	}
	// Symbolic point dims compare by form.
	c := SymSection{Dims: []SymDim{Point(sym("i")), ConstDim(1, 10, 1)}}
	if a.Contains(c) || c.Contains(a) {
		t.Error("i-1 and i rows are not comparable by constant offset ≥ 0 in both directions")
	}
	// But i contains i (reflexive).
	if !c.Contains(c) || !c.Equal(c) {
		t.Error("containment/equality must be reflexive")
	}
}

func TestContainsOffset(t *testing.T) {
	big := SymSection{Dims: []SymDim{ConstDim(0, 10, 1)}}
	small := SymSection{Dims: []SymDim{ConstDim(2, 8, 1)}}
	if !big.Contains(small) || small.Contains(big) {
		t.Error("constant-offset containment failed")
	}
	// Symbolic bounds with constant difference.
	a := SymSection{Dims: []SymDim{{Lo: sym("i").AddConst(-1), Hi: sym("i").AddConst(2), Step: 1}}}
	b := SymSection{Dims: []SymDim{{Lo: sym("i"), Hi: sym("i").AddConst(1), Step: 1}}}
	if !a.Contains(b) || b.Contains(a) {
		t.Error("symbolic containment with constant slack failed")
	}
}

func TestHull(t *testing.T) {
	a := SymSection{Dims: []SymDim{ConstDim(1, 4, 1)}}
	b := SymSection{Dims: []SymDim{ConstDim(3, 8, 1)}}
	h, blowup, ok := a.Hull(b)
	if !ok {
		t.Fatal("hull must exist for constant bounds")
	}
	if lo, _ := h.Dims[0].Lo.IsConst(); lo != 1 {
		t.Errorf("hull lo = %v", h.Dims[0].Lo)
	}
	if hi, _ := h.Dims[0].Hi.IsConst(); hi != 8 {
		t.Errorf("hull hi = %v", h.Dims[0].Hi)
	}
	if blowup != 8.0/10.0 {
		t.Errorf("blowup = %v", blowup)
	}
	// Incomparable symbolic bounds: no hull.
	c := SymSection{Dims: []SymDim{{Lo: sym("i"), Hi: sym("i"), Step: 1}}}
	d := SymSection{Dims: []SymDim{{Lo: sym("j"), Hi: sym("j"), Step: 1}}}
	if _, _, ok := c.Hull(d); ok {
		t.Error("hull of unrelated symbolic bounds must fail")
	}
}

func TestHullCoversBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		a := SymSection{Dims: []SymDim{ConstDim(rng.Intn(6), rng.Intn(12), 1+rng.Intn(3))}}
		b := SymSection{Dims: []SymDim{ConstDim(rng.Intn(6), rng.Intn(12), 1+rng.Intn(3))}}
		h, _, ok := a.Hull(b)
		if !ok {
			t.Fatal("const hull must exist")
		}
		ca, _ := a.Concrete(nil)
		cb, _ := b.Concrete(nil)
		ch, _ := h.Concrete(nil)
		for _, s := range []struct {
			name string
			sec  interface{ Elems(func([]int) bool) }
		}{
			{"a", ca}, {"b", cb},
		} {
			s.sec.Elems(func(idx []int) bool {
				x := idx[0]
				lo, _ := h.Dims[0].Lo.IsConst()
				hi, _ := h.Dims[0].Hi.IsConst()
				if x < lo || x > hi {
					t.Fatalf("hull %v of %v,%v misses %d from %s", ch, ca, cb, x, s.name)
				}
				return true
			})
		}
	}
}

// TestHullCountMatchesHull: the size-only hull reports what the full
// one does — the element count of the descriptor Hull builds, the
// blow-up Hull reports through Blowup, and the same refusals — on random
// sections of up to three dimensions mixing constant, symbolic and
// point bounds.
func TestHullCountMatchesHull(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	dim := func() SymDim {
		switch rng.Intn(4) {
		case 0:
			return Point(sym("i").AddConst(rng.Intn(3) - 1))
		case 1:
			return SymDim{Lo: sym("i").AddConst(rng.Intn(3)), Hi: sym("n").AddConst(rng.Intn(3)), Step: 1 + rng.Intn(2)}
		}
		return ConstDim(rng.Intn(6), rng.Intn(12), 1+rng.Intn(3))
	}
	refused := 0
	for trial := 0; trial < 2000; trial++ {
		rank := 1 + rng.Intn(3)
		var a, b SymSection
		for k := 0; k < rank; k++ {
			a.Dims = append(a.Dims, dim())
			b.Dims = append(b.Dims, dim())
		}
		if rng.Intn(10) == 0 {
			b.Dims = b.Dims[1:]
		}
		h, blowup, ok := a.Hull(b)
		n, known, cok := a.HullCount(b)
		if ok != cok {
			t.Fatalf("%v ∪ %v: Hull ok=%v, HullCount ok=%v", a, b, ok, cok)
		}
		if !ok {
			refused++
			continue
		}
		hn, hknown := h.NumElems()
		na, oka := a.NumElems()
		nb, okb := b.NumElems()
		if n != hn || known != hknown || Blowup(n, na+nb, known && oka && okb) != blowup {
			t.Fatalf("%v ∪ %v: Hull %v has %d,%v elements, blow-up %v; HullCount says %d,%v", a, b, h, hn, hknown, blowup, n, known)
		}
	}
	if refused == 0 || refused == 2000 {
		t.Errorf("%d of 2000 pairs refused: the generator misses a case", refused)
	}
}

func TestConcrete(t *testing.T) {
	s := SymSection{Dims: []SymDim{Point(sym("i").AddConst(-1)), ConstDim(1, 6, 2)}}
	sec, ok := s.Concrete(map[string]int{"i": 4})
	if !ok {
		t.Fatal("concrete eval failed")
	}
	if sec.Dims[0].Lo != 3 || sec.Dims[0].Hi != 3 {
		t.Errorf("dim0 = %v", sec.Dims[0])
	}
	if sec.NumElems() != 3 {
		t.Errorf("elems = %d", sec.NumElems())
	}
	if _, ok := s.Concrete(nil); ok {
		t.Error("missing binding must fail")
	}
}

func TestMappingRelations(t *testing.T) {
	grid := []int{4, 4}
	left1 := Mapping{Kind: MapShift, GridShape: grid, GridDim: 0, Sign: -1, Width: 1}
	left2 := Mapping{Kind: MapShift, GridShape: grid, GridDim: 0, Sign: -1, Width: 2}
	right := Mapping{Kind: MapShift, GridShape: grid, GridDim: 0, Sign: +1, Width: 1}
	up := Mapping{Kind: MapShift, GridShape: grid, GridDim: 1, Sign: -1, Width: 1}

	if !left1.SubsetOf(left2) || left2.SubsetOf(left1) {
		t.Error("narrow strip is a subset of wide strip, not vice versa")
	}
	if !left1.CompatibleWith(left2) || !left2.CompatibleWith(left1) {
		t.Error("same direction, different widths must combine")
	}
	if left1.CompatibleWith(right) || left1.CompatibleWith(up) {
		t.Error("different directions/dims must not combine")
	}
	if u := left1.Union(left2); u.Width != 2 {
		t.Errorf("union width = %d", u.Width)
	}
	other := Mapping{Kind: MapShift, GridShape: []int{2, 8}, GridDim: 0, Sign: -1, Width: 1}
	if left1.CompatibleWith(other) {
		t.Error("different grids never combine")
	}

	r1 := Mapping{Kind: MapReduce, GridShape: grid}
	r2 := Mapping{Kind: MapReduce, GridShape: grid}
	if !r1.CompatibleWith(r2) || !r1.Equal(r2) {
		t.Error("reductions on the same grid combine")
	}
	if r1.CompatibleWith(left1) {
		t.Error("reduce and shift must not combine")
	}

	g1 := Mapping{Kind: MapGeneral, GridShape: grid, Signature: "x"}
	g2 := Mapping{Kind: MapGeneral, GridShape: grid, Signature: "y"}
	if g1.CompatibleWith(g2) {
		t.Error("general mappings with different signatures must not combine")
	}
	if !g1.CompatibleWith(g1) {
		t.Error("identical general mappings combine")
	}
}

func TestASDSubsumes(t *testing.T) {
	grid := []int{4}
	m1 := Mapping{Kind: MapShift, GridShape: grid, GridDim: 0, Sign: -1, Width: 1}
	m2 := Mapping{Kind: MapShift, GridShape: grid, GridDim: 0, Sign: -1, Width: 2}
	big := ASD{Array: "a", Data: SymSection{Dims: []SymDim{ConstDim(1, 10, 1)}}, Map: m2}
	small := ASD{Array: "a", Data: SymSection{Dims: []SymDim{ConstDim(2, 9, 2)}}, Map: m1}
	if !big.Subsumes(small) {
		t.Error("bigger data + wider mapping must subsume")
	}
	if small.Subsumes(big) {
		t.Error("subsumption is antisymmetric here")
	}
	otherArray := ASD{Array: "b", Data: small.Data, Map: m1}
	if big.Subsumes(otherArray) {
		t.Error("different arrays never subsume")
	}
}

func TestStringForms(t *testing.T) {
	m := Mapping{Kind: MapShift, GridShape: []int{2, 2}, GridDim: 1, Sign: -1, Width: 2}
	if got := m.String(); got != "shift[dim1-2]" {
		t.Errorf("Mapping.String = %q", got)
	}
	r := Mapping{Kind: MapReduce}
	if r.String() != "reduce" {
		t.Errorf("reduce string = %q", r.String())
	}
	a := ASD{Array: "a", Data: SymSection{Dims: []SymDim{ConstDim(1, 4, 1)}}, Map: m}
	if got := a.String(); got != "a(1:4) via shift[dim1-2]" {
		t.Errorf("ASD.String = %q", got)
	}
	if MapBcast.String() != "bcast" || MapGeneral.String() != "general" || MapKind(9).String() == "" {
		t.Error("MapKind strings")
	}
}
