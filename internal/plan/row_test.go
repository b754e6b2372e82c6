package plan_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/native"
	"gcao/internal/plan"
	"gcao/internal/refeval"
	"gcao/internal/runtime"
	"gcao/internal/section"
	"gcao/internal/spmd"
)

func placeSrc(t testing.TB, src string, params map[string]int, procs int) *core.Result {
	t.Helper()
	return place(t, src, params, procs, core.VersionCombine)
}

// walker is a sequential driver over a lowered program, one processor
// after the other, for holding RunBox against the element walk: it
// executes what the backends execute (the same Begin/Enter/RunBox/Leave
// protocol, the same stores) and replaces their communication by the
// simplest sufficient one — at every communication position every
// processor receives every owner's elements its local box holds. Run
// once on a program as lowered and once after plan.ClearRows, it must
// leave the same memory image, validity planes included.
type walker struct {
	t    testing.TB
	prog *plan.Program
	mem  *runtime.Memory
	fr   *plan.Frame
	// deliver is false to run as under a placement stripped of its
	// communication; quiet is true to count nothing (a benchmark times the
	// kernels, not the counters). exact, when set, is the communication
	// instead of every owner's elements.
	deliver, quiet bool
	nest           bool
	counts, target []int
	exact          func(*walker)

	// What ran where: statement instances in the kernels (of those,
	// batched: in batches of more than one row) and on the tree; rows and
	// chain boxes the kernels ran, executions they stopped in, and the
	// rows of every batch.
	rowInst, batched, treeInst, rows, boxes, declined int
	batches                                           []int

	// stuck is where the kernels stopped (at most once: the run ends
	// there); a walker given it as watch records its own image when it
	// begins the same row.
	stuck, watch *stuckAt
}

// stuckAt is the state of a run at the row a box kernel could not
// prove: the row loop, the processor, the loop variables and a copy of
// the memory image.
type stuckAt struct {
	row   *plan.Loop
	p     int
	ints  []int
	image map[string]planes
}

type planes struct {
	data  [][]float64
	valid [][]bool
}

func newWalker(t testing.TB, res *core.Result, procs int) *walker {
	prog := plan.Lower(res)
	mem := prog.Plan.Layout.NewMemory()
	return &walker{t: t, prog: prog, mem: mem, fr: newFrame(t, prog, 0, mem), deliver: true, counts: make([]int, procs), target: make([]int, prog.Plan.Layout.MaxRank)}
}

func newFrame(t testing.TB, prog *plan.Program, p int, mem *runtime.Memory) *plan.Frame {
	fr, err := prog.NewFrame(p, mem)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

func (w *walker) run() error { return w.exec(w.prog.Body) }

func (w *walker) exec(nodes []plan.Node) error {
	for _, n := range nodes {
		var err error
		switch n := n.(type) {
		case *plan.Comm:
			w.comm(n)
		case *plan.Stmt:
			if w.nest {
				err = w.own(n)
			} else {
				err = w.stmt(n)
			}
		case *plan.Loop:
			err = w.loop(n)
		case *plan.If:
			err = w.branch(n)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *walker) comm(c *plan.Comm) {
	if c == nil || !w.deliver {
		return
	}
	if w.exact != nil {
		w.exact(w)
		return
	}
	for _, name := range w.mem.Unit.ArrayNames {
		am := w.mem.View(name)
		if am.Dist == nil {
			continue
		}
		am.BroadcastRange(section.Whole(am.Arr.Lo, am.Arr.Hi), 0, w.mem.P, w.fr.Scratch)
	}
}

func (w *walker) loop(lp *plan.Loop) error {
	w.comm(lp.Pre)
	if w.nest || lp.Nest == nil {
		return w.iterate(lp)
	}
	w.nest = true
	for p := 0; p < w.mem.P; p++ {
		w.fr.P = p
		if err := w.iterate(lp); err != nil {
			return err
		}
	}
	w.nest = false
	w.fr.P = 0
	return nil
}

func (w *walker) iterate(lp *plan.Loop) error {
	fr := w.fr
	first, last, step, exit, run := lp.Begin(fr)
	if run && lp.Nest != nil {
		lp.Nest.Enter(fr)
	}
	if fr.Err != nil || !run {
		return fr.Err
	}
	if at := w.watch; at != nil && at.image == nil && lp.Src == at.row.Src && fr.P == at.p && sameBut(fr.Ints, at.ints, lp.Slot) {
		at.image = w.snapshot()
	}
	switch w.runBox(lp) {
	case plan.NotApplicable:
		if err := w.walk(lp, first, last, step); err != nil {
			return err
		}
	case plan.Stuck:
		first, last, step, _, _ = lp.Box.Begin(fr)
		if err := w.walk(lp.Box, first, last, step); err != nil {
			return err
		}
		return plan.ErrDeclinedRowRan
	}
	fr.Ints[lp.Slot] = exit
	if lp.Nest != nil {
		lp.Nest.Leave(fr)
	}
	return nil
}

func (w *walker) walk(lp *plan.Loop, first, last, step int) error {
	for v := first; (step > 0 && v <= last) || (step < 0 && v >= last); v += step {
		w.fr.Ints[lp.Slot] = v
		w.comm(lp.Head)
		if err := w.exec(lp.Body); err != nil {
			return err
		}
	}
	return nil
}

// runBox is RunBox, counted, with what it must leave behind when it
// stops recorded for the caller to compare: no error, and the state.
func (w *walker) runBox(lp *plan.Loop) plan.Outcome {
	out, points := lp.RunBox(w.fr)
	switch {
	case w.quiet:
	case out == plan.Done:
		rows, n := lp.BoxShape(w.fr)
		if points != rows*n {
			w.t.Errorf("a box of %d rows of %d ran %d points", rows, n, points)
		}
		w.rows += rows
		if lp.Box != lp {
			w.boxes++
		}
		w.rowInst += points * len(lp.Box.Row)
		for b := plan.BatchRows(n); rows > 0; rows -= b {
			b = min(b, rows)
			w.batches = append(w.batches, b)
			if b > 1 {
				w.batched += b * n * len(lp.Box.Row)
			}
		}
	case out == plan.Stuck:
		w.declined++
		if w.fr.Err != nil {
			w.t.Errorf("a stuck box left error %v in the frame", w.fr.Err)
		}
		w.stuck = &stuckAt{row: lp.Box, p: w.fr.P, ints: slices.Clone(w.fr.Ints), image: w.snapshot()}
	}
	return out
}

// sameBut reports whether two slot vectors agree everywhere but at one
// slot.
func sameBut(a, b []int, but int) bool {
	for s := range a {
		if s != but && a[s] != b[s] {
			return false
		}
	}
	return true
}

// snapshot copies every processor's data and validity planes.
func (w *walker) snapshot() map[string]planes {
	out := map[string]planes{}
	for _, name := range w.mem.Unit.ArrayNames {
		am := w.mem.View(name)
		var pl planes
		for p := range am.Data {
			pl.data = append(pl.data, slices.Clone(am.Data[p]))
			pl.valid = append(pl.valid, am.ValidPlane(p))
		}
		out[name] = pl
	}
	return out
}

// own executes a statement of a pure nest for the frame's processor.
func (w *walker) own(st *plan.Stmt) error {
	fr := w.fr
	p, am := fr.P, fr.View(st.LHS.Lay)
	if st.Guard {
		if idx := st.LHS.Index(fr, w.target); am.Owner(idx) != p {
			am.InvalidateBox(p, idx, idx)
			return nil
		}
	}
	off, _ := st.LHS.Offset(fr, p)
	v := st.RHS.Eval(fr)
	if fr.Err != nil {
		return fr.Err
	}
	am.StoreOwner(off, p, v)
	w.treeInst++
	return nil
}

// stmt executes a statement outside the nests: on the owner of its
// target, from processor 0's view for a replicated target.
func (w *walker) stmt(st *plan.Stmt) error {
	fr := w.fr
	fr.P = 0
	w.sums(st.Sums)
	owner, off, idx := 0, 0, []int(nil)
	if st.LHS != nil {
		if idx = st.LHS.Index(fr, w.target); fr.Err == nil {
			owner = st.LHS.Lay.Owner(idx)
			off, _ = st.LHS.Lay.Local(owner, idx)
		}
	}
	if fr.Err != nil {
		return fr.Err
	}
	fr.P = owner
	v := st.RHS.Eval(fr)
	fr.P = 0
	if fr.Err != nil {
		return fr.Err
	}
	w.treeInst++
	if st.LHS == nil {
		fr.Reals[st.Scalar], fr.Set[st.Scalar] = v, true
		return nil
	}
	fr.View(st.LHS.Lay).StoreOwner(off, owner, v)
	fr.View(st.LHS.Lay).InvalidateRange(idx, owner, 0, w.mem.P)
	return nil
}

func (w *walker) sums(sums []plan.Sum) {
	for i := range sums {
		if sec := sums[i].Section(w.fr); w.fr.Err == nil {
			w.fr.Sums[sums[i].Slot] = w.fr.View(sums[i].Lay).SumSection(sec, w.fr.Scratch, w.counts)
		}
	}
}

func (w *walker) branch(n *plan.If) error {
	fr := w.fr
	fr.P = 0
	w.sums(n.Sums)
	v := n.Cond.Eval(fr)
	if fr.Err != nil {
		return fr.Err
	}
	if v != 0 {
		return w.exec(n.Then)
	}
	return w.exec(n.Else)
}

// sameImage compares two walkers' final states bit for bit: every
// processor's data and validity plane of every array, and the scalars.
func sameImage(t *testing.T, row, elem *walker) {
	t.Helper()
	samePlanes(t, row.snapshot(), elem.snapshot())
	sa, sb := map[string]float64{}, map[string]float64{}
	row.prog.Scalars(row.fr, sa)
	elem.prog.Scalars(elem.fr, sb)
	for name, v := range sa {
		if math.Float64bits(v) != math.Float64bits(sb[name]) {
			t.Fatalf("scalar %s: kernels %v, element walk %v", name, v, sb[name])
		}
	}
}

func samePlanes(t *testing.T, row, elem map[string]planes) {
	t.Helper()
	for name, a := range row {
		b := elem[name]
		for p := range a.data {
			for off, v := range a.data[p] {
				if math.Float64bits(v) != math.Float64bits(b.data[p][off]) {
					t.Fatalf("%s: processor %d, offset %d: kernels %v, element walk %v", name, p, off, v, b.data[p][off])
				}
				if a.valid[p][off] != b.valid[p][off] {
					t.Fatalf("%s: processor %d, offset %d: kernels valid=%v, element walk valid=%v", name, p, off, a.valid[p][off], b.valid[p][off])
				}
			}
		}
	}
}

// rowAgainstElements runs one placed program both ways and compares;
// it returns the row-path walker for its counts.
func rowAgainstElements(t *testing.T, res *core.Result, procs int) *walker {
	t.Helper()
	row, elem := newWalker(t, res, procs), newWalker(t, res, procs)
	plan.ClearRows(elem.prog)
	if err := row.run(); err != nil {
		t.Fatalf("row path: %v", err)
	}
	if err := elem.run(); err != nil {
		t.Fatalf("element walk: %v", err)
	}
	if elem.rows != 0 || row.declined != 0 {
		t.Fatalf("element walk ran %d rows, row path declined %d", elem.rows, row.declined)
	}
	sameImage(t, row, elem)
	return row
}

// inPlaceSrc updates g in place from a stencil of itself, two nests per
// step with an exchange between them.
const inPlaceSrc = `
routine r(n, steps)
real g(n, n), w(n, n)
real c
!hpf$ distribute (block, block) :: g, w
c = 0.25
do i = 1, n
do j = 1, n
g(i, j) = i + j
w(i, j) = 0
enddo
enddo
do it = 1, steps
do i = 2, n - 1
do j = 2, n - 1
w(i, j) = g(i - 1, j) + g(i + 1, j) + g(i, j - 1) + g(i, j + 1) - 4 * g(i, j)
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
g(i, j) = g(i, j) + c * (w(i, j) + w(i, j))
enddo
enddo
enddo
end
`

var rowShapes = []struct {
	name, src    string
	rows, chains int // row loops and box chains lowering must find at P=4
}{
	{"negative-step", `
routine r(n)
real a(n, n), b(n, n)
!hpf$ distribute (block, block) :: a, b
do i = n, 1, -1
do j = n, 1, -1
a(i, j) = i - 0.5 * j
b(i, j) = 1
enddo
enddo
do i = n - 1, 2, -1
do j = n - 1, 2, -1
b(i, j) = a(i, j - 1) + a(i + 1, j)
enddo
enddo
end
`, 2, 2},
	{"star-innermost", `
routine r(n)
real g(n, n, n), h(n, n, n)
!hpf$ distribute (*, block, block) :: g, h
do j = 1, n
do k = 1, n
do i = 1, n
g(i, j, k) = 1.0 + mod(i + 2 * j + 3 * k, 7) * 0.125
h(i, j, k) = -g(i, j, k)
enddo
enddo
enddo
do j = 1, n
do k = 1, n
do i = n - 1, 2, -1
h(i, j, k) = g(i - 1, j, k) - g(i + 1, j, k)
enddo
enddo
enddo
end
`, 2, 2},
	{"stride-0-reads", `
routine r(n)
real a(n, n), b(n, n), col(n), q(n)
real x
!hpf$ distribute (block, block) :: a, b
!hpf$ distribute (block) :: col
x = 3
do i = 1, n
q(i) = i * i
enddo
do i = 1, n
col(i) = 2 * i
enddo
do i = 1, n
do j = 1, n
a(i, j) = q(i) + q(n + 1 - j) * x
enddo
enddo
do i = 1, n
do j = 1, n
b(i, j) = a(i, 1) + i / x + sqrt(abs(a(i, j))) ** 2
enddo
enddo
end
`, 3, 2},
	{"second-reads-first", `
routine r(n)
real a(n, n), b(n, n), c(n, n)
!hpf$ distribute (block, block) :: a, b, c
do i = 1, n
do j = 1, n
b(i, j) = i + 10 * j
a(i, j) = b(i, j) * 2
c(i, j) = a(i, j) + b(i, j)
a(i, j) = max(c(i, j), 25) - min(a(i, j), 7)
enddo
enddo
end
`, 1, 1},
	{"in-place", inPlaceSrc, 3, 3},
	// Chains: three deep with a leaf over both outer variables and a
	// descending middle loop; a box of 200 rows of 3-4 elements at P=4 (400
	// of 7 at P=1), several batches and a partial last one; rows of 300
	// elements, one to a batch.
	{"chain-3-deep", `
routine r(n)
real g(n, n, n), h(n, n, n)
!hpf$ distribute (block, block, *) :: g, h
do i = 1, n
do j = n, 1, -1
do k = 1, n
g(i, j, k) = 10.0 + i * 0.01 + j * 0.02 + k * 0.03
h(i, j, k) = g(i, j, k) * (i - j)
enddo
enddo
enddo
do i = 2, n - 1
do j = n - 1, 2, -1
do k = 1, n
h(i, j, k) = h(i, j, k) + g(i - 1, j, k) - g(i, j + 1, k)
enddo
enddo
enddo
end
`, 2, 2},
	{"many-batches", `
routine r(n)
real a(20, 20, n), b(20, 20, n)
!hpf$ distribute (block, *, block) :: a, b
do i = 1, 20
do j = 1, 20
do k = 1, n
a(i, j, k) = i + 0.5 * j - 0.25 * k
b(i, j, k) = 1
enddo
enddo
enddo
do i = 2, 19
do j = 20, 1, -1
do k = 2, n - 1
b(i, j, k) = b(i, j, k) + a(i + 1, j, k) * a(i, j, k - 1)
enddo
enddo
enddo
end
`, 2, 2},
	{"long-rows", `
routine r(n)
real a(n, 300), b(n, 300)
!hpf$ distribute (block, *) :: a, b
do i = 1, n
do j = 1, 300
a(i, j) = i + mod(j, 11)
b(i, j) = a(i, j) / 3
enddo
enddo
do i = 1, n - 1
do j = 2, 299
b(i, j) = a(i + 1, j - 1) - a(i, j + 1) + j
enddo
enddo
end
`, 2, 2},
	// The kernels' operand and store shapes: a right-hand side that is
	// one read (the store copies the view), a constant store, a negation
	// of the target into the target, leaves over the chain's outer
	// variable in batches of several rows — an operand, and a whole
	// right-hand side — and a strided read beside unit-stride views.
	{"whole-rhs-one-read", `
routine r(n)
real a(n, n), b(n, n)
!hpf$ distribute (block, block) :: a, b
do i = 1, n
do j = 1, n
a(i, j) = i * n + j
b(i, j) = 0
enddo
enddo
do i = 1, n
do j = 2, n
b(i, j) = a(i, j - 1)
enddo
enddo
end
`, 2, 2},
	{"constant-store", `
routine r(n)
real a(n, n), b(n, n)
!hpf$ distribute (block, block) :: a, b
do i = 1, n
do j = 1, n
a(i, j) = 2.5
b(i, j) = a(i, j) * 3
a(i, j) = -1
enddo
enddo
end
`, 1, 1},
	{"negate-own-target", `
routine r(n)
real a(n, n)
!hpf$ distribute (block, block) :: a
do i = 1, n
do j = 1, n
a(i, j) = i - 2 * j
enddo
enddo
do i = 1, n
do j = 1, n
a(i, j) = -a(i, j)
enddo
enddo
end
`, 2, 2},
	{"chain-variable-leaf", `
routine r(n)
real a(n, n), b(n, n), c(n, n)
real x
!hpf$ distribute (block, block) :: a, b, c
x = 1.5
do i = 1, n
do j = 1, n
a(i, j) = i + 0.25 * j
enddo
enddo
do i = 1, n
do j = 1, n
b(i, j) = a(i, j) * (i + 0.5) - x * i
c(i, j) = i * x
a(i, j) = i / (b(i, j) + 1) + j
enddo
enddo
end
`, 2, 2},
	{"strided-beside-views", `
routine r(n)
real a(n, n), b(n, n), q(n, n)
!hpf$ distribute (block, block) :: a, b
do i = 1, n
do j = 1, n
q(i, j) = 3 * i - j
enddo
enddo
do i = 1, n
do j = 1, n
a(i, j) = i + 2 * j
b(i, j) = 0
enddo
enddo
do i = 1, n
do j = 2, n
b(i, j) = q(j, i) + a(i, j) * a(i, j - 1) - q(j - 1, i)
enddo
enddo
end
`, 2, 2},
	// What must not be a chain, or a row loop at all: a target that does
	// not move with the outer loop (a reduction over j into w(k): taken a
	// statement at a time over the box, the last j would win), a statement
	// between two levels, a guarded statement.
	{"target-fixed-in-outer-loop", `
routine r(n)
real a(n, n), w(n)
!hpf$ distribute (*, block) :: a
!hpf$ distribute (block) :: w
do j = 1, n
do k = 1, n
a(j, k) = j + 2 * k
enddo
enddo
do k = 1, n
w(k) = 0
enddo
do j = 1, n
do k = 1, n
w(k) = w(k) + a(j, k) * j
enddo
enddo
end
`, 3, 1},
	{"statement-between-levels", `
routine r(n)
real a(n, n), b(n, n)
!hpf$ distribute (block, block) :: a, b
do i = 1, n
b(i, 1) = i
do j = 2, n
a(i, j) = i * j
b(i, j) = a(i, j) - 1
enddo
enddo
end
`, 1, 0},
	{"guarded", `
routine r(n)
real a(n, n)
!hpf$ distribute (block, cyclic) :: a
do i = 1, n
do j = 1, n
a(i, j) = i - j
enddo
enddo
end
`, 0, 0},
}

// TestRowMatchesElementWalk: running a row loop through RunRow and
// walking it element by element on the expression tree leave the same
// memory image — values and validity planes, on every processor — for
// the six Fig. 10(a) routines, random programs, and the row shapes that
// need care: negative steps, a strided row over a collapsed dimension,
// operands that do not move along the row, a statement reading what the
// one before it stored, an update in place, and each way the kernels
// read an operand and store a result. Extents do not divide the grids,
// and at P=25 some blocks are empty.
func TestRowMatchesElementWalk(t *testing.T) {
	procs := []int{1, 4, 9, 16, 25}
	for _, pr := range bench.Programs() {
		for _, p := range procs {
			for _, n := range []int{11, 3} {
				if n == 3 && p != 25 {
					continue
				}
				t.Run(fmt.Sprintf("%s-%s/P%d/n%d", pr.Bench, pr.Routine, p, n), func(t *testing.T) {
					a, err := pr.Compile(n, p)
					if err != nil {
						t.Fatal(err)
					}
					res, err := a.Place(core.Options{Version: core.VersionCombine})
					if err != nil {
						t.Fatal(err)
					}
					if w := rowAgainstElements(t, res, p); n > 3 && w.rows == 0 {
						t.Error("no row ran")
					}
				})
			}
		}
	}
	for _, tc := range rowShapes {
		for _, p := range procs {
			t.Run(fmt.Sprintf("%s/P%d", tc.name, p), func(t *testing.T) {
				res := placeSrc(t, tc.src, map[string]int{"n": 7, "steps": 2}, p)
				w := rowAgainstElements(t, res, p)
				if got := countRows(w.prog); p == 4 && (got.loops != tc.rows || got.chains != tc.chains) {
					t.Errorf("%d row loops, %d chains, want %d, %d", got.loops, got.chains, tc.rows, tc.chains)
				}
				if n := len(w.batches); p == 4 && tc.name == "many-batches" && (n < 4 || w.batches[n-1] >= w.batches[n-2]) {
					t.Errorf("batches of %v rows, want several full ones and a partial last", w.batches)
				}
				if tc.name == "long-rows" && slices.Max(w.batches) != 1 {
					t.Errorf("batches of %v rows, want one row each", w.batches)
				}
				ref, err := refeval.Run(res.Analysis)
				if err != nil {
					t.Fatal(err)
				}
				scalars := map[string]float64{}
				w.prog.Scalars(w.fr, scalars)
				if err := ref.Check(w.mem, scalars); err != nil {
					t.Error(err)
				}
			})
		}
	}
	seeds := int64(200)
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(1); seed <= seeds; seed++ {
		src := bench.RandomProgram(seed)
		for _, p := range procs {
			t.Run(fmt.Sprintf("random-%d/P%d", seed, p), func(t *testing.T) {
				res := placeSrc(t, src, map[string]int{"n": 5 + int(seed%4), "steps": 2}, p)
				rowAgainstElements(t, res, p)
			})
		}
	}
}

// staleLastRowSrc updates b in place from the row below. Processor 0 of
// two owns rows 1-6 of n=12 and the update runs them two to a batch; the
// row its neighbour owns is read from the last row of the last batch.
const staleLastRowSrc = `
routine r(n)
real a(n, 100), b(n, 100)
!hpf$ distribute (block, *) :: a, b
do i = 1, n
do j = 1, 100
a(i, j) = i + j
b(i, j) = i - j
enddo
enddo
do i = 1, n - 1
do j = 1, 100
b(i, j) = b(i, j) + a(i + 1, j)
enddo
enddo
end
`

// TestRowDeclinesWhole: under a placement whose data never arrives, the
// nest's entry proof declines and the kernels run nothing of it; with an
// operand that fails, RunBox stops at the first row in walk order it
// cannot prove — the first of a box — with no error left, the chain's
// outer variable on that row and the memory image the element walk has
// when it begins the same row. Either way the tree walk that follows
// reports the stale element or the operand, and ends on the element
// walk's error and image.
func TestRowDeclinesWhole(t *testing.T) {
	for _, tc := range []struct {
		name, src    string
		n, procs, at int // the value of i at the row that cannot run, 0 when the entry declines
		want         string
	}{
		{"stale", inPlaceSrc, 7, 4, 0, "read stale g"},
		{"stale-last-row", staleLastRowSrc, 12, 2, 0, "read stale a"},
		{"unbound-scalar", `
routine r(n)
real a(n, n), b(n, n)
real x
!hpf$ distribute (block, block) :: a, b
do i = 1, n
do j = 1, n
a(i, j) = 1
b(i, j) = a(i, j) + x
enddo
enddo
end
`, 7, 4, 1, `unbound scalar "x"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := placeSrc(t, tc.src, map[string]int{"n": tc.n, "steps": 1}, tc.procs)
			w := newWalker(t, res, tc.procs)
			w.deliver = false
			err := w.run()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run returned %v, want an error with %q", err, tc.want)
			}
			if stops := min(tc.at, 1); w.declined != stops {
				t.Fatalf("the kernels stopped %d times, want %d", w.declined, stops)
			}

			elem := newWalker(t, res, tc.procs)
			plan.ClearRows(elem.prog)
			elem.deliver = false
			if tc.at > 0 {
				if got := w.stuck.ints[slices.Index(w.prog.Ints, "i")]; got != tc.at {
					t.Errorf("stopped at i=%d, want %d", got, tc.at)
				}
				elem.watch = &stuckAt{row: w.stuck.row, p: w.stuck.p, ints: w.stuck.ints}
			}
			if elemErr := elem.run(); elemErr == nil || elemErr.Error() != err.Error() {
				t.Fatalf("the kernels' run returned %v, the element walk %v", err, elemErr)
			}
			if tc.at > 0 {
				if elem.watch.image == nil {
					t.Fatal("the element walk never began the row the kernels stopped at")
				}
				samePlanes(t, w.stuck.image, elem.watch.image)
			}
			sameImage(t, w, elem)
		})
	}
}

// coupledSrc reads a at a subscript two loop variables drive: the
// elements a processor reads are a parallelogram, the hull of the
// subscripts' ranges a box around it.
const coupledSrc = `
routine c(n)
real a(n, n), b(n, n)
!hpf$ distribute (block, *) :: a, b
do i = 1, n
do j = 1, n
a(i, j) = i * 10 + j
b(i, j) = 0
enddo
enddo
do i = 1, n - 2
do j = 1, 2
b(i, j) = a(i + j, j)
enddo
enddo
end
`

// TestEntryProofDeclinesValidNest: a nest entry whose proof declines,
// though every element it reads is valid — a coupled subscript's hull
// holds elements it does not read, which a communication of exactly the
// read ones leaves stale — takes the tested element walk and leaves what
// the element walk and the reference leave; with the placement's own
// communication, which makes the hull valid, the kernels run it, and both
// backends leave the reference's image bit for bit.
func TestEntryProofDeclinesValidNest(t *testing.T) {
	const n, procs = 10, 2
	res := placeSrc(t, coupledSrc, map[string]int{"n": n}, procs)
	exact := func(w *walker) { // a(i+j, j) to b(i, j)'s owner, for the nest's i and j
		a, b := w.mem.View("a"), w.mem.View("b")
		for i := 1; i <= n-2; i++ {
			for j := 1; j <= 2; j++ {
				idx := []int{i + j, j}
				p, o := b.Owner([]int{i, j}), a.Owner(idx)
				if p != o {
					from, _ := a.Local(o, idx)
					to, _ := a.Local(p, idx)
					a.Data[p][to] = a.Data[o][from]
					a.Deliver(p, section.Point(idx...), w.fr.Scratch)
				}
			}
		}
	}
	ref, err := refeval.Run(res.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, w *walker) {
		t.Helper()
		scalars := map[string]float64{}
		w.prog.Scalars(w.fr, scalars)
		if err := ref.Check(w.mem, scalars); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	placed, declined, elem := newWalker(t, res, procs), newWalker(t, res, procs), newWalker(t, res, procs)
	declined.exact, elem.exact = exact, exact
	plan.ClearRows(elem.prog)
	for name, w := range map[string]*walker{"placed": placed, "declined": declined, "element walk": elem} {
		if err := w.run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, w)
	}
	sameImage(t, declined, elem)
	// The reading nest is a row of two elements per i: the placed run's
	// kernels run processor 0's five, i = 1..5, the declined run's none of
	// them, and processor 1's three in both, whose reads its own rows hold.
	if got, want := placed.rows-declined.rows, 5; got != want {
		t.Errorf("the kernels ran %d rows fewer with the read elements alone delivered, want %d", got, want)
	}
	sim, err := spmd.RunParallel(res, machine.SP2(), procs, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := native.NewEngine(res, procs)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := native.Diff(nat, sim); err != nil {
		t.Fatal(err)
	}
	if err := ref.Check(nat.Mem, nat.Scalars); err != nil {
		t.Errorf("native: %v", err)
	}
}

// rowCount is what lowering decided about row loops: how many there
// are, how many of them end a box chain, and how many of the statements
// inside pure nests they hold.
type rowCount struct{ loops, chains, rowStmts, nestStmts int }

func countRows(prog *plan.Program) rowCount {
	var out rowCount
	var walk func(nodes []plan.Node, nest bool)
	walk = func(nodes []plan.Node, nest bool) {
		for _, n := range nodes {
			switch n := n.(type) {
			case *plan.Loop:
				if n.Row != nil {
					out.loops++
					out.rowStmts += len(n.Row)
				}
				if n.Box != nil && n.Box != n {
					out.chains++
				}
				walk(n.Body, nest || n.Nest != nil)
			case *plan.If:
				walk(n.Then, nest)
				walk(n.Else, nest)
			case *plan.Stmt:
				if nest {
					out.nestStmts++
				}
			}
		}
	}
	walk(prog.Body, false)
	return out
}

// TestRowCoverageFig10a pins how much of the paper's routines lowering
// puts in row loops and how many of those end a box chain, so that a
// change which silently drops statements to the tree, or rows out of
// their boxes, fails here and not in a benchmark. Gravity's three
// plane-initialisation stores share a loop body with the loop over the
// collapsed dimension: they stay on the tree, and that loop a row loop
// without a chain.
func TestRowCoverageFig10a(t *testing.T) {
	want := map[string]rowCount{
		"shallow/main":    {4, 4, 23, 23},
		"gravity/main":    {7, 6, 7, 10},
		"trimesh/normdot": {8, 8, 24, 24},
		"trimesh/gauss":   {6, 6, 16, 16},
		"hydflo/flux":     {11, 11, 20, 20},
		"hydflo/hydro":    {4, 4, 10, 10},
	}
	for _, pr := range bench.Programs() {
		for _, p := range []int{16, 25} {
			a, err := pr.Compile(12, p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.Place(core.Options{Version: core.VersionCombine})
			if err != nil {
				t.Fatal(err)
			}
			prog := plan.Lower(res)
			name := pr.Bench + "/" + pr.Routine
			if got := countRows(prog); got != want[name] {
				t.Errorf("%s at P=%d: %+v, want %+v", name, p, got, want[name])
			}
		}
	}
}

// TestRowScratchFig10a pins the frame's scratch rows of the paper's
// routines at their Fig. 10(a) sizes on 16 processors, in floats: reads
// of unit stride are views and a unit-stride target takes its last
// operation's result, so only the row variable, strided reads and
// intermediate results take scratch. A change that makes an operand a
// copy again raises it.
func TestRowScratchFig10a(t *testing.T) {
	want := map[string]int{
		"shallow/main":    512,
		"gravity/main":    512,
		"trimesh/normdot": 512,
		"trimesh/gauss":   256,
		"hydflo/flux":     512,
		"hydflo/hydro":    256,
	}
	for _, pr := range bench.Programs() {
		a, err := pr.Compile(pr.DefaultN, 16)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Place(core.Options{Version: core.VersionCombine})
		if err != nil {
			t.Fatal(err)
		}
		name := pr.Bench + "/" + pr.Routine
		if got := plan.RowFloats(plan.Lower(res)); got != want[name] {
			t.Errorf("%s at n=%d, P=16: %d scratch floats, want %d", name, pr.DefaultN, got, want[name])
		}
	}
}

// TestRowShare reports, for the programs of the repository benchmark at
// their benchmark sizes, the share of dynamic statement instances that
// ran in the kernels and — the property batching depends on — in batches
// of more than one row, with the boxes run and the rows per batch
// (EXPERIMENTS.md records them), and holds what the benchmark relies on:
// no box stops, and the kernels carry nearly all the work.
func TestRowShare(t *testing.T) {
	if testing.Short() {
		t.Skip("walks gravity n=48 twice")
	}
	for _, tc := range []struct {
		bench, routine   string
		params           map[string]int
		procs            int
		atLeast, batched float64
	}{
		{"gravity", "main", map[string]int{"nx": 48, "ny": 48, "nz": 48, "steps": 1}, 16, 0.98, 0.80},
		{"shallow", "main", map[string]int{"n": 16, "steps": 40}, 16, 0.99, 0.99},
		{"hydflo", "flux", map[string]int{"n": 16, "steps": 4}, 16, 0.99, 0.99},
		{"shallow", "main", map[string]int{"n": 32, "steps": 2}, 4, 0.99, 0.99},
	} {
		pr, err := bench.ByName(tc.bench, tc.routine)
		if err != nil {
			t.Fatal(err)
		}
		w := newWalker(t, placeSrc(t, pr.Source, tc.params, tc.procs), tc.procs)
		if err := w.run(); err != nil {
			t.Fatal(err)
		}
		all := float64(w.rowInst + w.treeInst)
		share, batched := float64(w.rowInst)/all, float64(w.batched)/all
		slices.Sort(w.batches)
		t.Logf("%s/%s %v P=%d: %d of %d statement instances in the kernels (%.2f%%), %d in batches of several rows (%.2f%%); %d boxes and %d rows run, %d stopped; %d batches of %d / %d / %d rows (min / median / max)",
			tc.bench, tc.routine, tc.params, tc.procs, w.rowInst, w.rowInst+w.treeInst, 100*share, w.batched, 100*batched,
			w.boxes, w.rows, w.declined, len(w.batches), w.batches[0], w.batches[len(w.batches)/2], w.batches[len(w.batches)-1])
		if w.declined != 0 || share < tc.atLeast || batched < tc.batched {
			t.Errorf("%s/%s: share %.4f (want >= %v), batched %.4f (want >= %v), %d boxes stopped",
				tc.bench, tc.routine, share, tc.atLeast, batched, tc.batched, w.declined)
		}
	}
}

// The two kernels BenchmarkRowKernel times, at P=1 so that one nest
// entry sweeps a box of exactly rows × len elements: gravity's
// five-point stencil over a collapsed first dimension, and hydflo/flux's
// 27-op difference chain over seven arrays.
const (
	stencilKernel = `
routine k(len, rows)
real g(3, rows + 2, len + 2), w1(rows + 2, len + 2)
!hpf$ distribute (*, block, block) :: g
!hpf$ distribute (block, block) :: w1
do i = 1, 3
do j = 1, rows + 2
do k = 1, len + 2
g(i, j, k) = 1.0 + (i + 2 * j + 3 * k) * 0.125
enddo
enddo
enddo
do i = 2, 2
do j = 2, rows + 1
do k = 2, len + 1
w1(j, k) = g(i, j - 1, k) + g(i, j + 1, k) + g(i, j, k - 1) + g(i, j, k + 1) - 4 * g(i, j, k)
enddo
enddo
enddo
end
`
	fluxKernel = `
routine k(len, rows)
real qa(3, rows + 2, len + 2), qb(3, rows + 2, len + 2), qc(3, rows + 2, len + 2), qd(3, rows + 2, len + 2)
real qe(3, rows + 2, len + 2), qf(3, rows + 2, len + 2), qg(3, rows + 2, len + 2), fx(3, rows + 2, len + 2)
!hpf$ distribute (*, block, block) :: qa, qb, qc, qd, qe, qf, qg, fx
do i = 1, 3
do j = 1, rows + 2
do k = 1, len + 2
qa(i, j, k) = 1 + (i + j + k) * 0.2
qb(i, j, k) = 1 + (i + 2 * j + k) * 0.15
qc(i, j, k) = 1 + (i + j + 2 * k) * 0.1
qd(i, j, k) = 1 + (2 * i + j + k) * 0.25
qe(i, j, k) = 1 + (i + 3 * j + k) * 0.05
qf(i, j, k) = 1 + (3 * i + j + k) * 0.12
qg(i, j, k) = 1 + (i + j + 3 * k) * 0.08
enddo
enddo
enddo
do i = 2, 2
do j = 2, rows + 1
do k = 2, len + 1
fx(i, j, k) = qa(i, j - 1, k) - qa(i, j + 1, k) + qb(i, j - 1, k) - qb(i, j + 1, k) + qc(i, j - 1, k) - qc(i, j + 1, k) + qd(i, j - 1, k) - qd(i, j + 1, k) + qe(i, j - 1, k) - qe(i, j + 1, k) + qf(i, j - 1, k) - qf(i, j + 1, k) + qg(i, j - 1, k) - qg(i, j + 1, k)
enddo
enddo
enddo
end
`
)

// leafStrideKernel reads a leaf over the chain's outer variable, which
// differs from row to row of a batch, and a replicated array across its
// rows, a strided read, beside unit-stride views.
const leafStrideKernel = `
routine k(len, rows)
real g(rows + 2, len + 2), w1(rows + 2, len + 2), q(len + 2, rows + 2)
real x
!hpf$ distribute (block, block) :: g, w1
x = 0.75
do k = 1, len + 2
do j = 1, rows + 2
q(k, j) = 0.5 * j - k
enddo
enddo
do j = 1, rows + 2
do k = 1, len + 2
g(j, k) = 1.0 + (2 * j + 3 * k) * 0.125
enddo
enddo
do j = 2, rows + 1
do k = 2, len + 1
w1(j, k) = g(j, k - 1) * (j + x) + q(k, j) - g(j, k + 1) / j
enddo
enddo
end
`

// kernelNest runs the kernel program once (so that its arrays hold
// values) and returns the walker with the kernel's nest: the last
// top-level loop, a box of rows × length elements per entry. mode says
// how the walker is to run it: "tree" on the expression tree, "row" a row at
// a time, "box" as lowered.
func kernelNest(t testing.TB, src string, length, rows int, mode string) (*walker, *plan.Loop) {
	w := newWalker(t, placeSrc(t, src, map[string]int{"len": length, "rows": rows}, 1), 1)
	switch mode {
	case "tree":
		plan.ClearRows(w.prog)
	case "row":
		plan.ClearChains(w.prog)
	}
	if err := w.run(); err != nil {
		t.Fatal(err)
	}
	nest := w.prog.Body[len(w.prog.Body)-1].(*plan.Loop)
	if nest.Nest == nil {
		t.Fatal("the kernel is not a pure nest")
	}
	w.nest = true
	return w, nest
}

// BenchmarkRowKernel is the per-layer number behind the kernels: ns per
// element of one statement — on the expression tree, a row at a time, and
// the box in batches — at row lengths from the benchmark's (4 for shallow
// and flux at n=16, 12 for gravity at n=48) to the paper's (250) and
// boxes of 1 to 64 rows. Driver overhead — Begin, the nest's Enter and
// Leave — is in all three.
func BenchmarkRowKernel(b *testing.B) {
	for _, k := range []struct{ name, src string }{{"stencil", stencilKernel}, {"flux27", fluxKernel}} {
		for _, length := range []int{4, 12, 48, 250} {
			for _, rows := range []int{1, 4, 16, 64} {
				for _, mode := range []string{"tree", "row", "box"} {
					b.Run(fmt.Sprintf("%s/len%d/rows%d/%s", k.name, length, rows, mode), func(b *testing.B) {
						w, nest := kernelNest(b, k.src, length, rows, mode)
						w.quiet = true
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if err := w.iterate(nest); err != nil {
								b.Fatal(err)
							}
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*length), "ns/elem")
					})
				}
			}
		}
	}
}

// TestRunRowDoesNotAllocate: the scratch of a box — operand rows, the
// offsets and leaf values of a batch — is sized with the frame, so a box
// costs no allocation, first or warm, whether it is one long row, one
// batch or several, and whether its operands are views, gathered strided
// reads or leaves that differ from row to row.
func TestRunRowDoesNotAllocate(t *testing.T) {
	for _, src := range []string{stencilKernel, fluxKernel, leafStrideKernel} {
		for _, shape := range [][2]int{{12, 8}, {300, 3}, {5, 70}} {
			for _, mode := range []string{"row", "box"} {
				w, nest := kernelNest(t, src, shape[0], shape[1], mode)
				rows := w.rows
				if allocs := testing.AllocsPerRun(10, func() {
					w.batches = w.batches[:0]
					if err := w.iterate(nest); err != nil {
						t.Fatal(err)
					}
				}); allocs != 0 {
					t.Errorf("%s: one nest entry of %d rows of %d allocates %v times", mode, shape[1], shape[0], allocs)
				}
				if w.rows == rows {
					t.Error("no row ran")
				}
			}
		}
	}
}
