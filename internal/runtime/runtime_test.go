package runtime

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"gcao/internal/machine"
	"gcao/internal/parser"
	"gcao/internal/section"
	"gcao/internal/sem"
)

func unit(t *testing.T, src string, params map[string]int, procs int) *sem.Unit {
	t.Helper()
	r, err := parser.ParseRoutine(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u, err := sem.Analyze(r, params, sem.Options{Procs: procs})
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	return u
}

// marginsOf returns NewLayout's table of margins by slot: the margin the
// map gives an array's name, -1 (its declared extents) for any other.
func marginsOf(u *sem.Unit, byName map[string]int) []int {
	margin := make([]int, len(u.ArrayNames))
	for slot, name := range u.ArrayNames {
		if w, ok := byName[name]; ok {
			margin[slot] = w
		} else {
			margin[slot] = -1
		}
	}
	return margin
}

const memSrc = `
routine m(n)
real a(n, n), r(n)
!hpf$ processors p(2, 2)
!hpf$ distribute a(block, block)
a(1, 1) = 0
end
`

func TestOwnershipAndValidity(t *testing.T) {
	u := unit(t, memSrc, map[string]int{"n": 8}, 4)
	m := NewMemory(u, 4)

	// Owners partition the array; owned elements start valid.
	for i := 1; i <= 8; i++ {
		for j := 1; j <= 8; j++ {
			o := m.Owner("a", []int{i, j})
			if v, err := m.Read(o, "a", []int{i, j}); err != nil || v != 0 {
				t.Fatalf("owner read a[%d %d]: %v %v", i, j, v, err)
			}
			for p := 0; p < 4; p++ {
				if p == o {
					continue
				}
				if _, err := m.Read(p, "a", []int{i, j}); err == nil {
					t.Fatalf("non-owner read of a[%d %d] by %d should be stale", i, j, p)
				}
			}
		}
	}
	// Replicated arrays are valid everywhere.
	for p := 0; p < 4; p++ {
		if _, err := m.Read(p, "r", []int{3}); err != nil {
			t.Fatalf("replicated read: %v", err)
		}
	}
	// A list of valid boxes holds no element its processor owns, lies in
	// its local box and holds disjoint boxes: CheckHulls reports a list
	// that does not.
	if err := m.CheckHulls(); err != nil {
		t.Fatalf("a new memory: %v", err)
	}
	am := m.View("a")
	for _, tc := range []struct {
		boxes []int
		want  string
	}{
		{[]int{4, 4, 5, 5}, "holds elements it owns"},
		{[]int{5, 1, 9, 1}, "not a box inside its local box"},
		{[]int{5, 1, 6, 1, 6, 1, 7, 1}, "which meet"},
	} {
		am.lists[0].boxes = tc.boxes
		if err := m.CheckHulls(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("processor 0 listing %v: CheckHulls returned %v, want %q", tc.boxes, err, tc.want)
		}
	}
}

func TestWriteInvalidates(t *testing.T) {
	u := unit(t, memSrc, map[string]int{"n": 8}, 4)
	m := NewMemory(u, 4)
	idx := []int{4, 4} // owned by proc 0 (blocks of 4)
	owner := m.Owner("a", idx)

	// Deliver a ghost copy everywhere via Broadcast, then overwrite:
	// the ghosts must go stale.
	m.View("a").BroadcastRange(section.Whole([]int{4, 4}, []int{4, 4}), 0, 4, NewScratch(2))
	for p := 0; p < 4; p++ {
		if _, err := m.Read(p, "a", idx); err != nil {
			t.Fatalf("post-broadcast read by %d: %v", p, err)
		}
	}
	m.Write("a", idx, 42)
	if v, err := m.Read(owner, "a", idx); err != nil || v != 42 {
		t.Fatalf("owner sees %v, %v", v, err)
	}
	for p := 0; p < 4; p++ {
		if p == owner {
			continue
		}
		_, err := m.Read(p, "a", idx)
		var stale *StaleReadError
		if !errors.As(err, &stale) {
			t.Fatalf("proc %d should see stale after redefinition, got %v", p, err)
		}
		if stale.Proc != p || stale.Array != "a" {
			t.Errorf("stale error fields = %+v", stale)
		}
	}
}

func TestShiftDeliversStrip(t *testing.T) {
	u := unit(t, memSrc, map[string]int{"n": 8}, 4)
	m := NewMemory(u, 4)
	// Fill with distinct values.
	for i := 1; i <= 8; i++ {
		for j := 1; j <= 8; j++ {
			m.Write("a", []int{i, j}, float64(10*i+j))
		}
	}
	// Use a(i-1, j): data moves toward higher coords: sign -1 on grid
	// dim 0 (rows). Proc rows 1 need row 4 from proc rows 0.
	sec := section.Whole([]int{1, 1}, []int{8, 8})
	bytes := make([]int, 4)
	shiftRange(m, sec, 0, -1, 1, 0, 4, NewScratch(2), bytes)
	// Reader (1,0) = pid 2 owns rows 5..8, cols 1..4 and reads row 4.
	pid := u.Grid.PID([]int{1, 0})
	for j := 1; j <= 4; j++ {
		v, err := m.Read(pid, "a", []int{4, j})
		if err != nil || v != float64(40+j) {
			t.Fatalf("ghost a[4 %d] on proc %d = %v, %v", j, pid, v, err)
		}
	}
	// Rows outside the strip stay stale.
	if _, err := m.Read(pid, "a", []int{3, 1}); err == nil {
		t.Error("row 3 should not be delivered with width 1")
	}
	// Bytes accounted per receiver: row strip of 4 elements = 32 bytes
	// into each processor of grid row 1, nothing into row 0.
	if want := []int{0, 0, 32, 32}; !slices.Equal(bytes, want) {
		t.Errorf("bytes per receiver = %v, want %v", bytes, want)
	}
}

func TestShiftForwardsGhosts(t *testing.T) {
	// Corner forwarding: after a dim-1 exchange, a dim-0 exchange must
	// forward the received ghosts so diagonal corners arrive (the
	// two-phase augmented exchange of §2.2).
	u := unit(t, memSrc, map[string]int{"n": 8}, 4)
	m := NewMemory(u, 4)
	for i := 1; i <= 8; i++ {
		for j := 1; j <= 8; j++ {
			m.Write("a", []int{i, j}, float64(10*i+j))
		}
	}
	sec := section.Whole([]int{1, 1}, []int{8, 8})
	// Reading a(i-1, j-1) on proc (1,1): needs corner a[4 4] owned by
	// (0,0). Exchange dim 1 then dim 0.
	sc, bytes := NewScratch(2), make([]int, 4)
	shiftRange(m, sec, 1, -1, 1, 0, 4, sc, bytes)
	shiftRange(m, sec, 0, -1, 1, 0, 4, sc, bytes)
	pid := u.Grid.PID([]int{1, 1}) // owns rows 5..8, cols 5..8
	v, err := m.Read(pid, "a", []int{4, 4})
	if err != nil || v != 44 {
		t.Fatalf("corner a[4 4] on proc %d = %v, %v", pid, v, err)
	}
}

func TestBroadcastAndSum(t *testing.T) {
	u := unit(t, memSrc, map[string]int{"n": 8}, 4)
	m := NewMemory(u, 4)
	total := 0.0
	for j := 1; j <= 8; j++ {
		m.Write("a", []int{1, j}, float64(j))
		total += float64(j)
	}
	sec := section.Section{Dims: []section.Dim{{Lo: 1, Hi: 1, Step: 1}, {Lo: 1, Hi: 8, Step: 1}}}
	am, sc, counts := m.View("a"), NewScratch(2), make([]int, 4)
	got := am.SumSection(sec, sc, counts)
	if got != total {
		t.Errorf("SumSection = %v, want %v", got, total)
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != 8 {
		t.Errorf("owned counts sum = %d, want 8", sum)
	}
	bytes := am.BroadcastRange(sec, 0, 4, sc)
	if bytes != 8*8 {
		t.Errorf("broadcast bytes = %d", bytes)
	}
	for p := 0; p < 4; p++ {
		if _, err := m.Read(p, "a", []int{1, 5}); err != nil {
			t.Errorf("post-broadcast read by %d: %v", p, err)
		}
	}
}

func TestCanonical(t *testing.T) {
	u := unit(t, memSrc, map[string]int{"n": 8}, 4)
	m := NewMemory(u, 4)
	m.Write("a", []int{2, 3}, 7)
	flat := m.Canonical("a")
	if flat[(2-1)*8+(3-1)] != 7 {
		t.Error("Canonical did not pick up the owner value")
	}
}

// TestCompareState is the table of the one final-state comparison: two
// images of one routine, bit for bit, NaN equal to any NaN, and only the
// scalars both hold.
func TestCompareState(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1) // another NaN payload
	for _, tc := range []struct {
		name     string
		a, b     float64 // a(2, 3) in each image
		as, bs   map[string]float64
		mismatch string // "" when the states are equal
	}{
		{name: "equal", a: 1.5, b: 1.5, as: map[string]float64{"s": 2}, bs: map[string]float64{"s": 2}},
		{name: "flipped low bit", a: 1.5, b: math.Float64frombits(math.Float64bits(1.5) ^ 1), mismatch: `array "a" differs at flat index 10`},
		{name: "NaN pair", a: math.NaN(), b: nan2},
		{name: "NaN against a number", a: math.NaN(), b: 0, mismatch: `array "a" differs`},
		{name: "+0 against -0", a: 0, b: math.Copysign(0, -1), mismatch: `array "a" differs`},
		{name: "scalar one side holds", a: 1, b: 1, as: map[string]float64{"s": 2}, bs: map[string]float64{"t": 3}},
		{name: "differing scalar", a: 1, b: 1, as: map[string]float64{"s": 2}, bs: map[string]float64{"s": 3}, mismatch: `scalar "s" differs`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := unit(t, memSrc, map[string]int{"n": 8}, 4)
			a, b := NewMemory(u, 4), NewMemory(u, 4)
			a.Write("a", []int{2, 3}, tc.a)
			b.Write("a", []int{2, 3}, tc.b)
			err := CompareState(a, b, tc.as, tc.bs)
			switch {
			case tc.mismatch == "" && err != nil:
				t.Errorf("equal states reported %v", err)
			case tc.mismatch != "" && (err == nil || !strings.Contains(err.Error(), tc.mismatch)):
				t.Errorf("got %v, want an error containing %q", err, tc.mismatch)
			}
		})
	}
}

func TestLedgerAccounting(t *testing.T) {
	l := NewLedger(4, machine.SP2())
	v := l.View(0, 4, make([]float64, 4))
	v.Compute(0, 1000)
	l.Absorb(&v)
	l.Message(0, 1, 4096)
	if l.DynMessages != 1 || l.MsgsRecv[1] != 1 || l.BytesMoved != 4096 {
		t.Errorf("ledger = %+v", l)
	}
	if l.Net[0] == 0 || l.Net[1] == 0 {
		t.Error("both endpoints pay for a message")
	}
	maxClock := func() float64 {
		t := 0.0
		for p := range l.CPU {
			t = max(t, l.CPU[p]+l.Net[p])
		}
		return t
	}
	before := maxClock()
	l.Barrier()
	if maxClock() != before {
		t.Error("barrier must not change the max clock")
	}
	// After a barrier all processors are at the same time.
	for p := 0; p < 4; p++ {
		if got := l.CPU[p] + l.Net[p]; got != before {
			t.Errorf("proc %d clock %v after barrier, want %v", p, got, before)
		}
	}
	l.Reduce(32)
	l.Broadcast(128)
	if l.DynMessages <= 1 {
		t.Error("collectives must account messages")
	}
	if slices.Max(l.CPU) <= 0 || slices.Max(l.Net) <= 0 {
		t.Error("component clocks must advance")
	}
}

// TestInvalidateBoxMatchesElementwise: subtracting a box from a
// processor's list of valid boxes leaves its plane exactly as clearing,
// element by element, every element of the box the processor does not
// own — for BLOCK, CYCLIC and collapsed dimensions, uneven blocks,
// processors that own nothing (a BLOCK extent that fills fewer blocks
// than the grid has, a CYCLIC extent shorter than the grid), and every
// box inside the declared bounds: the ones that miss the processor's
// block, straddle it on either side in any dimension, lie inside it and
// contain it. The copies a box clears were delivered through the API —
// in turn the whole array (boxes every box cuts), a strided and an inset
// section on top of what the boxes before left (lists a box covers, cuts
// or misses) — and the lists are held to their invariants throughout; at
// declared extents and in local boxes, where an element the box does not
// hold has no copy to clear.
func TestInvalidateBoxMatchesElementwise(t *testing.T) {
	for _, tc := range []struct {
		decl, distribute string
		n, procs         int
	}{
		{"a(n, n)", "(block, block)", 7, 4},
		{"a(n, n)", "(block, block)", 3, 25},
		{"a(n, n)", "(cyclic, block)", 9, 4},
		{"a(n, n)", "(cyclic, block)", 7, 6},
		{"a(n, n)", "(block, cyclic)", 9, 6},
		{"a(n, n)", "(cyclic, cyclic)", 7, 6},
		{"a(n)", "(cyclic)", 3, 4},
		{"a(n)", "(block)", 9, 4},
		{"a(n, n, n)", "(*, block, block)", 5, 4},
		{"a(n, n, n)", "(*, block, block)", 4, 25},
		{"a(n, n, n)", "(block, *, cyclic)", 5, 6},
		{"a(n, n)", "(block, *)", 6, 4},
		{"a(0:n)", "(block)", 10, 4},
	} {
		src := "routine m(n)\nreal " + tc.decl + "\n!hpf$ distribute " + tc.distribute + " :: a\nend\n"
		for _, margin := range margins {
			invalidateBoxMatchesElementwise(t, src, tc.decl+" "+tc.distribute, tc.n, tc.procs, margin)
		}
	}
}

func invalidateBoxMatchesElementwise(t *testing.T, src, what string, n, procs, margin int) {
	u := unit(t, src, map[string]int{"n": n}, procs)
	m := NewMemory(u, procs)
	if margin >= 0 {
		m = NewLayout(u, procs, marginsOf(u, map[string]int{"a": margin})).NewMemory()
	}
	am := m.View("a")
	rank := am.Arr.Rank()
	sc := NewScratch(rank)
	// Every box: the product over the dimensions of every interval.
	boxes := [][2][]int{{nil, nil}}
	for k := 0; k < rank; k++ {
		var next [][2][]int
		for _, box := range boxes {
			for lo := am.Arr.Lo[k]; lo <= am.Arr.Hi[k]; lo++ {
				for hi := lo; hi <= am.Arr.Hi[k]; hi++ {
					next = append(next, [2][]int{append(slices.Clone(box[0]), lo), append(slices.Clone(box[1]), hi)})
				}
			}
		}
		boxes = next
	}
	delivered := sections(am)
	for b, box := range boxes {
		for p := 0; p < procs; p++ {
			am.BroadcastRange(delivered[b%len(delivered)], p, p+1, sc)
			want := am.ValidPlane(p)
			section.Whole(box[0], box[1]).Elems(func(ix []int) bool {
				if off, in := am.Local(p, ix); in && ownerOf(am, ix) != p {
					want[off] = false
				}
				return true
			})
			am.InvalidateBox(p, box[0], box[1])
			if got := am.ValidPlane(p); !slices.Equal(got, want) {
				t.Fatalf("%s n=%d P=%d margin %d box %v:%v: processor %d's plane is\n%v, want\n%v",
					what, n, procs, margin, box[0], box[1], p, got, want)
			}
		}
		if err := m.CheckHulls(); err != nil {
			t.Fatalf("%s n=%d P=%d margin %d after box %v:%v: %v", what, n, procs, margin, box[0], box[1], err)
		}
	}
}

// unitOf returns the source of a routine declaring k arrays beside a real
// scalar: k − 1 of 16 × 16 — BLOCK by BLOCK, BLOCK by CYCLIC and replicated
// in turn — and r, 16 elements, replicated.
func unitOf(k int) string {
	var decl, block, cyclic []string
	for i := 1; i < k; i++ {
		name := fmt.Sprintf("a%d", i)
		decl = append(decl, name+"(16, 16)")
		switch i % 3 {
		case 1:
			block = append(block, name)
		case 2:
			cyclic = append(cyclic, name)
		}
	}
	src := "routine m(n)\nreal " + strings.Join(append(decl, "r(16)", "s"), ", ") + "\n"
	if len(block) > 0 {
		src += "!hpf$ distribute (block, block) :: " + strings.Join(block, ", ") + "\n"
	}
	if len(cyclic) > 0 {
		src += "!hpf$ distribute (block, cyclic) :: " + strings.Join(cyclic, ", ") + "\n"
	}
	return src + "s = 1\nend\n"
}

// TestCarvingAllocatesByType: a layout and an image are carved from one
// slab per element type, so what NewLayout and NewMemory allocate does not
// depend on how many arrays the unit declares or how many processors hold
// them.
func TestCarvingAllocatesByType(t *testing.T) {
	counts := map[string]float64{}
	for _, k := range []int{2, 12} {
		for _, p := range []int{4, 16} {
			u := unit(t, unitOf(k), map[string]int{"n": 16}, p)
			margin := make([]int, len(u.ArrayNames))
			for slot := range margin {
				margin[slot] = 1
			}
			l := NewLayout(u, p, margin)
			for what, f := range map[string]func(){
				"NewLayout":            func() { NewLayout(u, p, margin) },
				"NewLayout at extents": func() { NewLayout(u, p, nil) },
				"NewMemory":            func() { l.NewMemory() },
			} {
				n := testing.AllocsPerRun(10, f)
				if c, ok := counts[what]; ok && n != c {
					t.Errorf("%s of %d arrays on %d processors allocates %v objects, %v elsewhere", what, k, p, n, c)
				}
				counts[what] = n
			}
		}
	}
	t.Logf("allocations: %v", counts)
}

// TestCarvedTablesCapped: every table of a layout and every plane and list
// of an image is carved from a slab it shares with the next one, so each
// must end where its share does — else an append to one would write over
// its neighbour. A list of valid boxes is capped at its share of the list
// store, 2·rank + 1 boxes, which a cache line separates from the next.
func TestCarvedTablesCapped(t *testing.T) {
	u := unit(t, unitOf(12), map[string]int{"n": 16}, 16)
	l := NewLayout(u, 16, marginsOf(u, map[string]int{"a1": 1, "a2": 2}))
	m := l.NewMemory()
	capped := func(what string, n, c int) {
		if n != c {
			t.Errorf("%s has %d elements and room for %d", what, n, c)
		}
	}
	for i := range m.Arrays {
		am := &m.Arrays[i]
		if am.ArrayLayout != &l.Arrays[i] || l.Array(am.Name) != am.ArrayLayout || m.View(am.Name) != am {
			t.Errorf("slot %d: %s is not its layout's or its image's", i, am.Name)
		}
		for k, own := range am.own {
			capped(fmt.Sprintf("%s's ownership table %d", am.Name, k), len(own), cap(own))
		}
		capped(am.Name+"'s ownership tables", len(am.own), cap(am.own))
		for what, s := range map[string][]int{"runEnd": am.runEnd, "Strides": am.Strides, "ext": am.ext, "at": am.at, "base": am.base, "box": am.box, "sentAt": am.sentAt} {
			capped(am.Name+"'s "+what, len(s), cap(s))
		}
		capped(am.Name+"'s whole section", len(am.whole.Dims), cap(am.whole.Dims))
		capped(am.Name+"'s planes", len(am.Data), cap(am.Data))
		for p, plane := range am.Data {
			capped(fmt.Sprintf("processor %d's plane of %s", p, am.Name), len(plane), cap(plane))
		}
		r := len(am.Strides)
		capped(am.Name+"'s lists", len(am.lists), cap(am.lists))
		for p := range am.lists {
			capped(fmt.Sprintf("processor %d's list share of %s", p, am.Name), 2*r*(2*r+1), cap(am.lists[p].boxes))
		}
	}
	var sc Scratch
	ints, dims := make([]int, 24), make([]section.Dim, 8)
	sc.Carve(3, &ints, &dims)
	for what, s := range map[string][]int{"lo": sc.lo, "hi": sc.hi, "idx": sc.idx, "box": sc.box} {
		capped("scratch "+what, len(s), cap(s))
	}
	capped("scratch dims", len(sc.dims), cap(sc.dims))
	if n, d := ScratchSize(3); len(ints) != 24-n || len(dims) != 8-d {
		t.Errorf("Carve left %d ints and %d dims of 24 and 8, ScratchSize says it takes %d and %d", len(ints), len(dims), n, d)
	}
}
