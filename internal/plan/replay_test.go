package plan_test

import (
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/plan"
)

// control walks a lowered program's control flow for one processor as a
// native processor's frame sees it — loop variables, nest entries and
// exits, communication positions in program order — and executes no
// statement, so the program must not branch (the benchmark programs do
// not). At every exchange it asks what the native backend asks of its
// schedule — is there one, and does Frame.Unchanged say the slots the
// sections read hold what they held — and at every nest entry whether
// Enter will return at once: counting wrappers around the two replays,
// with no counter in the program.
type control struct {
	t    *testing.T
	fr   *plan.Frame
	keys map[*plan.CommOp][]int

	exchReplayed, exchBuilt, nestReplayed, nestBuilt int
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
		if c.fr.Unchanged(op.Slots, key) && built {
			c.exchReplayed++
		} else {
			c.exchBuilt++
		}
	}
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
// benchmark at their benchmark sizes, how many exchanges and nest entries
// a warm native run replays and how many it builds, summed over the
// processors (EXPERIMENTS.md records them), and holds the property the
// replay's gain depends on: in a time loop whose sections do not move —
// shallow, hydflo/flux — every exchange and every nest is built once per
// processor and replayed from then on, (steps-1)/steps of what the loop
// executes; gravity's exchanges, whose g(i, ...) strips move with the
// plane, are rebuilt every time, and so are the entries of its nests that
// subscript the plane variable (their verified ranges move with it); the
// nests that do not are replayed.
func TestScheduleReplayShare(t *testing.T) {
	for _, tc := range []struct {
		bench, routine string
		params         map[string]int
		procs          int
		// What one processor builds: its exchanges and nests, once each,
		// where nothing moves; -1 for exchanges that are never replayed.
		exchanges, nests int
	}{
		{"gravity", "main", map[string]int{"nx": 48, "ny": 48, "nz": 48, "steps": 1}, 16, -1, 142},
		{"shallow", "main", map[string]int{"n": 16, "steps": 40}, 16, 8, 4},
		{"hydflo", "flux", map[string]int{"n": 16, "steps": 4}, 16, 6, 11},
		{"shallow", "main", map[string]int{"n": 32, "steps": 2}, 4, 8, 4},
	} {
		pr, err := bench.ByName(tc.bench, tc.routine)
		if err != nil {
			t.Fatal(err)
		}
		w := newWalker(t, placeSrc(t, pr.Source, tc.params, tc.procs), tc.procs)
		var sum control
		for p := 0; p < tc.procs; p++ {
			c := control{t: t, fr: w.prog.NewFrame(p), keys: map[*plan.CommOp][]int{}}
			c.exec(w.prog.Body)
			sum.exchReplayed += c.exchReplayed
			sum.exchBuilt += c.exchBuilt
			sum.nestReplayed += c.nestReplayed
			sum.nestBuilt += c.nestBuilt
		}
		exch, nests := sum.exchReplayed+sum.exchBuilt, sum.nestReplayed+sum.nestBuilt
		t.Logf("%s/%s %v P=%d: exchanges %d replayed / %d built (%.2f%%), nest entries %d replayed / %d built (%.2f%%)",
			tc.bench, tc.routine, tc.params, tc.procs, sum.exchReplayed, sum.exchBuilt, 100*float64(sum.exchReplayed)/float64(exch),
			sum.nestReplayed, sum.nestBuilt, 100*float64(sum.nestReplayed)/float64(nests))
		if want := tc.exchanges * tc.procs; tc.exchanges >= 0 && sum.exchBuilt != want {
			t.Errorf("%s/%s: %d exchange schedules built, want %d a processor: %d", tc.bench, tc.routine, sum.exchBuilt, tc.exchanges, want)
		}
		if tc.exchanges < 0 && sum.exchReplayed != 0 {
			t.Errorf("%s/%s: %d exchanges replayed although their strips move with the plane", tc.bench, tc.routine, sum.exchReplayed)
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
		fr.Reset()
	}
	if err := enter(1); err != nil || !read.Nest.Verified(fr) {
		t.Fatalf("it = 1 after the failed entries: error %v, remembered %v", err, read.Nest.Verified(fr))
	}
}
