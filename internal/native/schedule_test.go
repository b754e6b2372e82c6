package native

import (
	"slices"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/parser"
	"gcao/internal/plan"
	"gcao/internal/section"
	"gcao/internal/sem"
	"gcao/internal/spmd"
)

// afterLoopSection exchanges row k of a, where k is the variable of a
// loop that has finished: the section reads the slot from outside its
// loop, so the entry moves nothing while no loop has bound it.
const afterLoopSection = `
routine u(n)
real a(0:n, n), b(0:n, n)
integer i, j, k
!hpf$ distribute (block, block) :: a, b
do i = 0, n
do j = 1, n
a(i, j) = i * 10 + j
b(i, j) = 0
enddo
enddo
do k = 2, 4
b(k, 1) = a(k, 1)
enddo
do j = 2, n
b(k, j) = a(k, j - 1)
enddo
end
`

// combEngine compiles src under the parameter binding, places it under
// comb and prepares a native engine on procs processors.
func combEngine(t *testing.T, src string, params map[string]int, procs int) *Engine {
	t.Helper()
	r, err := parser.ParseRoutine(src)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sem.Analyze(r, params, sem.Options{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalysis(u)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Place(core.Options{Version: core.VersionCombine})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(res, procs)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestScheduleKeyHoldsBoundBits: a schedule built while a slot its
// sections read was unbound — an empty one: the entry is skipped — is not
// replayed once the slot is bound, even to 0, the value an unbound slot
// holds; it is replayed while slot and bit stay, and moved — translated
// within processor 0's rows, rebuilt past them — when the value moves.
func TestScheduleKeyHoldsBoundBits(t *testing.T) {
	e := combEngine(t, afterLoopSection, map[string]int{"n": 12}, 4)
	var op *plan.CommOp
	for _, n := range e.prog.Body {
		if lp, ok := n.(*plan.Loop); ok && lp.Pre != nil && len(lp.Pre.Ops[0].Slots) == 1 {
			op = &lp.Pre.Ops[0]
		}
	}
	if op == nil || op.Group.Kind != core.KindShift {
		t.Fatal("no exchange over a variable from outside its loop at a loop's preheader")
	}
	k := op.Slots[0]
	// Processor 0 of the 2 × 2 grid sends its last column to processor 1.
	pc := e.ps[0]
	runs := func() int { return len(pc.schedule(op, 1, -1).send) }

	if n := runs(); n != 0 {
		t.Fatalf("%d runs scheduled while k is unbound, want none", n)
	}
	pc.fr.Bound[k] = true
	if n := runs(); n != 1 {
		t.Fatalf("%d runs scheduled with k bound to 0, want row 0's one: the empty schedule was replayed", n)
	}
	packsFrom := func() int { // the first offset the send leg reads, -1 with nothing to send
		if sch := pc.schedule(op, 1, -1); len(sch.send) > 0 {
			return sch.send[0].off + sch.ents[0].off
		}
		return -1
	}
	first := packsFrom()
	if again := packsFrom(); again != first {
		t.Fatal("an unchanged key moved the schedule")
	}
	// a(0:12, 12) on 2 × 2: rows 0-6 are processor 0's, row 7 its ghost margin.
	stride := pc.sched[op.Group.ID].ents[0].am.Strides[0]
	for _, row := range []int{5, 7, 9, 3} {
		pc.fr.Ints[k] = row
		want := first + row*stride
		if row > 7 {
			want = -1 // no row of the strip is in reach of processor 1's block
		}
		if got := packsFrom(); got != want {
			t.Fatalf("k = %d: the schedule packs from offset %d, want %d", row, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		pc.fr.Ints[k] = 7 - pc.fr.Ints[k] // rows 3 and 4 in turn: translated both ways
		pc.schedule(op, 1, -1)
	}); allocs != 0 {
		t.Errorf("a translated schedule allocates %v times a call, want 0", allocs)
	}
}

// walker walks a lowered program's control flow on one native processor —
// loop variables, nest entries and exits, communication positions in
// program order — and executes no statement, so the program must not
// branch (the benchmark programs do not). At every exchange it makes
// proc.schedule's three-way choice with a counter on each way, then
// builds the exchange's schedule from scratch beside the processor's and
// holds the two against each other.
type walker struct {
	t                           *testing.T
	pc                          *proc
	replayed, translated, built int
}

func (w *walker) exec(nodes []plan.Node) {
	for _, n := range nodes {
		switch n := n.(type) {
		case *plan.Comm:
			w.comm(n)
		case *plan.Loop:
			w.loop(n)
		case *plan.If:
			w.t.Fatalf("the program branches at %s: a control walk cannot decide it", n.Src.Branch.Pos)
		}
	}
}

func (w *walker) loop(lp *plan.Loop) {
	w.comm(lp.Pre)
	fr := w.pc.fr
	first, last, step, exit, run := lp.Begin(fr)
	if run && lp.Nest != nil {
		lp.Nest.Enter(fr)
	}
	if fr.Err != nil {
		w.t.Fatal(fr.Err)
	}
	if !run {
		return
	}
	for v := first; lp.Nest == nil && ((step > 0 && v <= last) || (step < 0 && v >= last)); v += step {
		fr.Ints[lp.Slot] = v
		w.comm(lp.Head)
		w.exec(lp.Body)
	}
	fr.Ints[lp.Slot] = exit
	if lp.Nest != nil {
		lp.Nest.Leave(fr)
	}
}

func (w *walker) comm(cm *plan.Comm) {
	if cm == nil {
		return
	}
	pc, grid := w.pc, w.pc.eng.prog.Plan.A.Unit.Grid
	for i := range cm.Ops {
		op := &cm.Ops[i]
		g := op.Group
		if g.Kind != core.KindShift {
			continue
		}
		dst, src := -1, -1
		if q, ok := grid.Neighbor(pc.p, g.Map.GridDim, -g.Map.Sign); ok {
			dst = q
		}
		if q, ok := grid.Neighbor(pc.p, g.Map.GridDim, g.Map.Sign); ok {
			src = q
		}
		sch := &pc.sched[g.ID]
		before := sch.key != nil
		fresh := schedule{dims: make([]section.Dim, 2*len(pc.to)*len(op.Entries))}
		if !before {
			sch.key, sch.dims = make([]int, len(op.Slots)), slices.Clone(fresh.dims)
		}
		switch {
		case pc.fr.Unchanged(op.Slots, sch.key) && before:
			w.replayed++
		case before && pc.translate(sch, op, dst, src):
			w.translated++
		default:
			pc.build(sch, op, dst, src)
			w.built++
		}
		pc.build(&fresh, op, dst, src)
		same, ns, nr := len(sch.ents) == len(fresh.ents), 0, 0
		for i := 0; same && i < len(fresh.ents); i++ {
			e, f := sch.ents[i], fresh.ents[i]
			same = e.am == f.am && e.nsend == f.nsend && e.nrecv == f.nrecv && slices.Equal(e.at, f.at) &&
				(slices.Equal(e.ghost, f.ghost) || section.Section{Dims: e.ghost}.IsEmpty() && section.Section{Dims: f.ghost}.IsEmpty())
			for ; same && ns < e.nsend; ns++ {
				same = sch.send[ns] == stripRun{fresh.send[ns].off - e.off, fresh.send[ns].n}
			}
			for ; same && nr < e.nrecv; nr++ {
				same = sch.recv[nr] == stripRun{fresh.recv[nr].off - e.off, fresh.recv[nr].n}
			}
		}
		if !same {
			w.t.Fatalf("processor %d, exchange %s with %v: the schedule is\n%+v\nbuilt from scratch\n%+v", pc.p, g.SiteID, pc.fr.Ints, *sch, fresh)
		}
	}
}

// movingRows sweeps a row variable downwards over a BLOCK dimension of c
// and a CYCLIC dimension of d, neither the one their combined exchanges
// move along: d's strips could translate throughout its covering range,
// c's only while the row stays in the processor's block or its margin, so
// the schedule is translated there and rebuilt where the row leaves them.
const movingRows = `
routine mv(n)
real c(n, n), wc(n, n), d(n, n), wd(n, n)
integer i, k
!hpf$ distribute (block, block) :: c, wc
!hpf$ distribute (cyclic, block) :: d, wd
do i = 1, n
do k = 1, n
c(i, k) = i + k
d(i, k) = i - k
enddo
enddo
do i = n - 1, 2, -1
do k = 2, n - 1
wc(i, k) = c(i, k - 1) + c(i, k + 1)
wd(i, k) = d(i, k - 1) + d(i, k + 1)
enddo
do k = 2, n - 1
c(i, k) = c(i, k) + wc(i, k)
d(i, k) = d(i, k) + wd(i, k)
enddo
enddo
end
`

// TestTranslatedScheduleMatchesRebuilt walks the six Fig. 10(a) routines
// on every processor of an engine and holds, at every exchange, the
// schedule the processor has — replayed, translated or built — against one
// built from scratch there: the same runs at the same offsets, the same
// sections. It pins how often each way is taken where the gain depends on
// it: gravity at its benchmark size builds its four exchanges once a
// processor and translates them for every later plane, and a time loop
// whose sections hold still replays. The smaller engines then run, twice,
// from the schedules the walk left them, to the simulator's image.
func TestTranslatedScheduleMatchesRebuilt(t *testing.T) {
	type row struct {
		bench, routine string
		params         map[string]int
		procs          int
		built          int // schedules one processor builds; -1: not pinned
	}
	rows := []row{
		{"gravity", "main", map[string]int{"nx": 48, "ny": 48, "nz": 48, "steps": 1}, 16, 4},
		{"gravity", "main", map[string]int{"nx": 7, "ny": 9, "nz": 5, "steps": 2}, 6, -1},
		{"shallow", "main", map[string]int{"n": 16, "steps": 40}, 16, 8},
		{"hydflo", "flux", map[string]int{"n": 16, "steps": 4}, 16, 6},
	}
	for _, pr := range bench.Programs() {
		rows = append(rows, row{pr.Bench, pr.Routine, pr.Params(12), 9, -1})
	}
	// Eleven rows on 2 × 3: each processor translates its two exchanges
	// over the rows in reach of its block and rebuilds them over the rest.
	rows = append(rows, row{"", "moving rows", map[string]int{"n": 13}, 6, 11})
	for _, tc := range rows {
		src := movingRows
		if tc.bench != "" {
			pr, err := bench.ByName(tc.bench, tc.routine)
			if err != nil {
				t.Fatal(err)
			}
			src = pr.Source
		}
		e := combEngine(t, src, tc.params, tc.procs)
		var sum walker
		for _, pc := range e.ps {
			w := walker{t: t, pc: pc}
			w.exec(e.prog.Body)
			sum.replayed, sum.translated, sum.built = sum.replayed+w.replayed, sum.translated+w.translated, sum.built+w.built
		}
		t.Logf("%s/%s %v P=%d: exchanges %d replayed / %d translated / %d built", tc.bench, tc.routine, tc.params, tc.procs, sum.replayed, sum.translated, sum.built)
		if want := tc.built * tc.procs; tc.built >= 0 && sum.built != want {
			t.Errorf("%s/%s: %d exchange schedules built, want %d a processor: %d", tc.bench, tc.routine, sum.built, tc.built, want)
		}
		if tc.procs > 9 {
			continue
		}
		// The engine runs from the schedules the walk left, then from the
		// ones its own run left, to the simulator's image both times.
		sim, err := spmd.Run(e.prog.Plan.Res, machine.SP2(), tc.procs)
		if err != nil {
			t.Fatal(err)
		}
		e.mem.Reset() // the walk's nest exits cleared copies of a memory no run has reset yet
		for run := 0; run < 2; run++ {
			nat, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := Diff(nat, sim); err != nil {
				t.Errorf("%s/%s run %d: %v", tc.bench, tc.routine, run, err)
			}
		}
	}
}
