package plan_test

import (
	"math"
	"slices"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/dist"
	"gcao/internal/plan"
	"gcao/internal/section"
)

// control walks a lowered program's control flow for one processor as a
// native processor's frame sees it — loop variables, nest entries and
// exits, communication positions in program order — and executes no
// statement, so the program must not branch (the benchmark programs do
// not). At every exchange it asks what the native backend asks of its
// schedule — is there one, does Frame.Unchanged say the slots the sections
// read hold what they held, and if they moved, does ArrayMem.StripShift say
// every entry's strips only moved with them, the sent and the received —
// and at every nest entry whether Enter will return at once: counting
// wrappers around the replays, with no counter in the program. (The native
// package's TestTranslatedScheduleMatchesRebuilt counts the same on the
// schedules themselves.)
type control struct {
	t    *testing.T
	fr   *plan.Frame
	grid dist.Grid
	keys map[*plan.CommOp][]int
	// at holds, per exchange, the entry sections — unclipped — its schedule
	// was last placed at; nil while a slot they read is unbound and an entry
	// left out.
	at map[*plan.CommOp][][]section.Dim

	exchReplayed, exchTranslated, exchBuilt, nestReplayed, nestBuilt int
}

func (c *control) exec(nodes []plan.Node) {
	for _, n := range nodes {
		switch n := n.(type) {
		case *plan.Comm:
			c.comm(n)
		case *plan.Loop:
			c.loop(n)
		case *plan.If:
			c.t.Fatalf("the program branches at %s: a control walk cannot decide it", n.Src.Branch.Pos)
		}
	}
}

func (c *control) comm(cm *plan.Comm) {
	if cm == nil {
		return
	}
	for i := range cm.Ops {
		op := &cm.Ops[i]
		if op.Group.Kind != core.KindShift {
			continue
		}
		key, built := c.keys[op]
		if !built {
			key = make([]int, len(op.Slots))
			c.keys[op] = key
		}
		switch {
		case c.fr.Unchanged(op.Slots, key) && built:
			c.exchReplayed++
		case c.moved(op, key):
			c.exchTranslated++
		default:
			c.exchBuilt++
		}
	}
}

// moved records where the exchange's entry sections are now and reports
// whether a schedule placed where they were before translates there.
func (c *control) moved(op *plan.CommOp, key []int) bool {
	g, at, to := op.Group, c.at[op], make([][]section.Dim, len(op.Entries))
	bound := !slices.Contains(key, math.MinInt)
	rigid := bound && at != nil
	for i := range op.Entries {
		es := &op.Entries[i]
		for k := range es.Lo {
			to[i] = append(to[i], section.Dim{Lo: es.Lo[k].Eval(c.fr), Hi: es.Hi[k].Eval(c.fr), Step: es.Step[k]})
		}
		if _, ok := c.grid.Neighbor(c.fr.P, g.Map.GridDim, -g.Map.Sign); ok && rigid { // the strip it sends
			_, rigid = es.Lay.StripShift(at[i], to[i], c.fr.P, es.ShiftDim, g.Map.Sign, g.Map.Width, c.fr.Scratch)
		}
		if src, ok := c.grid.Neighbor(c.fr.P, g.Map.GridDim, g.Map.Sign); ok && rigid { // the one it receives
			_, rigid = es.Lay.StripShift(at[i], to[i], src, es.ShiftDim, g.Map.Sign, g.Map.Width, c.fr.Scratch)
		}
	}
	if c.at[op] = nil; bound {
		c.at[op] = to
	}
	return rigid
}

func (c *control) loop(lp *plan.Loop) {
	c.comm(lp.Pre)
	fr := c.fr
	first, last, step, exit, run := lp.Begin(fr)
	if fr.Err != nil {
		c.t.Fatal(fr.Err)
	}
	if !run {
		return
	}
	if lp.Nest != nil {
		if lp.Nest.Verified(fr) {
			c.nestReplayed++
		} else {
			c.nestBuilt++
		}
		lp.Nest.Enter(fr)
		if fr.Err != nil {
			c.t.Fatal(fr.Err)
		}
		fr.Ints[lp.Slot] = exit
		lp.Nest.Leave(fr)
		return
	}
	for v := first; (step > 0 && v <= last) || (step < 0 && v >= last); v += step {
		fr.Ints[lp.Slot] = v
		c.comm(lp.Head)
		c.exec(lp.Body)
	}
	fr.Ints[lp.Slot] = exit
}

// TestScheduleReplayShare reports, for the programs of the repository
// benchmark at their benchmark sizes, how many exchanges a warm native run
// replays, translates and builds and how many nest entries it replays and
// builds, summed over the processors (EXPERIMENTS.md records them), and
// holds the property the replay's gain depends on: in a time loop whose
// sections do not move — shallow, hydflo/flux — every exchange and every
// nest is built once per processor and replayed from then on,
// (steps-1)/steps of what the loop executes; gravity's exchanges, whose
// g(i, ...) strips move with the plane along a collapsed dimension, are
// built once per processor too and translated for every later plane; the
// entries of its nests that subscript the plane variable are rebuilt every
// time (their verified ranges move with it) and the nests that do not are
// replayed.
func TestScheduleReplayShare(t *testing.T) {
	for _, tc := range []struct {
		bench, routine string
		params         map[string]int
		procs          int
		// What one processor builds: its exchanges and nests, once each,
		// where nothing moves or what moves translates.
		exchanges, nests int
	}{
		{"gravity", "main", map[string]int{"nx": 48, "ny": 48, "nz": 48, "steps": 1}, 16, 4, 142},
		{"shallow", "main", map[string]int{"n": 16, "steps": 40}, 16, 8, 4},
		{"hydflo", "flux", map[string]int{"n": 16, "steps": 4}, 16, 6, 11},
		{"shallow", "main", map[string]int{"n": 32, "steps": 2}, 4, 8, 4},
	} {
		pr, err := bench.ByName(tc.bench, tc.routine)
		if err != nil {
			t.Fatal(err)
		}
		res := placeSrc(t, pr.Source, tc.params, tc.procs)
		w := newWalker(t, res, tc.procs)
		var sum control
		for p := 0; p < tc.procs; p++ {
			c := control{t: t, fr: newFrame(t, w.prog, p, w.mem), grid: res.Analysis.Unit.Grid, keys: map[*plan.CommOp][]int{}, at: map[*plan.CommOp][][]section.Dim{}}
			c.exec(w.prog.Body)
			sum.exchReplayed += c.exchReplayed
			sum.exchTranslated += c.exchTranslated
			sum.exchBuilt += c.exchBuilt
			sum.nestReplayed += c.nestReplayed
			sum.nestBuilt += c.nestBuilt
		}
		exch, nests := sum.exchReplayed+sum.exchTranslated+sum.exchBuilt, sum.nestReplayed+sum.nestBuilt
		t.Logf("%s/%s %v P=%d: exchanges %d replayed / %d translated / %d built (%.2f%% not built), nest entries %d replayed / %d built (%.2f%%)",
			tc.bench, tc.routine, tc.params, tc.procs, sum.exchReplayed, sum.exchTranslated, sum.exchBuilt, 100*float64(exch-sum.exchBuilt)/float64(exch),
			sum.nestReplayed, sum.nestBuilt, 100*float64(sum.nestReplayed)/float64(nests))
		if want := tc.exchanges * tc.procs; sum.exchBuilt != want {
			t.Errorf("%s/%s: %d exchange schedules built, want %d a processor: %d", tc.bench, tc.routine, sum.exchBuilt, tc.exchanges, want)
		}
		if want := tc.nests * tc.procs; sum.nestBuilt != want {
			t.Errorf("%s/%s: %d nest entries built, want %d a processor: %d", tc.bench, tc.routine, sum.nestBuilt, tc.nests, want)
		}
	}
}

// TestEnterMemoForgetsFailedEntry: Enter returns at once only under the
// key of the frame's last entry that verified. An entry that recorded an
// error leaves no memo, so the same entry made again — the next run of a
// reused engine, after Frame.Reset — verifies again and reports again;
// and an entry that verifies after it is remembered as usual.
func TestEnterMemoForgetsFailedEntry(t *testing.T) {
	w := newWalker(t, placeSrc(t, `
routine r(n)
real a(n), b(n)
real x
!hpf$ distribute (block) :: a, b
do i = 1, n
a(i) = i
b(i) = 0
enddo
do it = 1, 2
x = it
do i = 1, n
b(i) = a(i + it - 1)
enddo
enddo
end
`, map[string]int{"n": 12}, 1), 1)
	steps := w.prog.Body[len(w.prog.Body)-1].(*plan.Loop)
	var read *plan.Loop
	for _, n := range steps.Body {
		if lp, ok := n.(*plan.Loop); ok {
			read = lp
		}
	}
	if read == nil || read.Nest == nil {
		t.Fatal("the reading loop is not a pure nest")
	}
	fr := w.fr
	enter := func(it int) error {
		fr.Ints[steps.Slot], fr.Bound[steps.Slot] = it, true
		if _, _, _, _, run := read.Begin(fr); !run {
			t.Fatal("the reading loop does not run")
		}
		read.Nest.Enter(fr)
		return fr.Err
	}
	if read.Nest.Verified(fr) {
		t.Fatal("a fresh frame holds a verified entry")
	}
	if err := enter(1); err != nil || !read.Nest.Verified(fr) {
		t.Fatalf("it = 1: error %v, remembered %v; want a verified entry", err, read.Nest.Verified(fr))
	}
	for run := 0; run < 2; run++ {
		if err := enter(2); err == nil || read.Nest.Verified(fr) {
			t.Fatalf("run %d, it = 2 (a(13) of 12): error %v, remembered %v; want the range error and no memo", run, err, read.Nest.Verified(fr))
		}
		if err := fr.Reset(w.mem); err != nil {
			t.Fatal(err)
		}
	}
	if err := enter(1); err != nil || !read.Nest.Verified(fr) {
		t.Fatalf("it = 1 after the failed entries: error %v, remembered %v", err, read.Nest.Verified(fr))
	}
}
