package plan_test

import (
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/plan"
	"gcao/internal/runtime"
)

// control walks a lowered program's control flow for one processor as a
// native processor's frame sees it — loop variables, nest entries and
// exits, communication positions in program order — and executes no
// statement, so the program must not branch (the benchmark programs do
// not). At every exchange it asks the plan schedule what the backends
// ask of it (Schedules.At) — the native backend for the frame's
// processor, sending and receiving; with recv, the simulator for every
// receiver, receiving only — and counts the way each
// took; given fresh, it holds each against one built from scratch there.
// At every nest entry it counts whether Enter will return at once: with
// no counter in the program.
type control struct {
	t         *testing.T
	fr        *plan.Frame
	procs     int
	recv      bool
	ss, fresh *plan.Schedules
	ways      map[string]int
	// asked holds the (exchange, processor) pairs asked about.
	asked                   map[pair]bool
	nestReplayed, nestBuilt int
}

type pair struct {
	op *plan.CommOp
	p  int
}

// newControl returns a control walk on processor p of prog, over its
// native engine's schedules or, with recv, its simulator's.
func newControl(t *testing.T, prog *plan.Program, mem *runtime.Memory, p int, recv, fresh bool) *control {
	ss := prog.NewSchedules(!recv)
	c := &control{t: t, fr: newFrame(t, prog, p, mem), procs: prog.Plan.Layout.P, recv: recv, ss: &ss, ways: map[string]int{}, asked: map[pair]bool{}}
	if fresh {
		f := prog.NewSchedules(!recv)
		c.fresh = &f
	}
	return c
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
		for p := range c.procs {
			if !c.recv && p != c.fr.P {
				continue
			}
			s, way := c.ss.AtWay(c.fr, op, p)
			c.ways[way]++
			c.asked[pair{op, p}] = true
			if c.fresh != nil && !s.Matches(c.fresh.Build(c.fr, op, p)) {
				c.t.Fatalf("processor %d, exchange %s with %v: the schedule (%s) is\n%+v\nbuilt from scratch\n%+v", p, op.Group.SiteID(), c.fr.Ints, way, *s, *c.fresh.Build(c.fr, op, p))
			}
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
// replayed. The simulator's receive-only schedules of hydflo/flux, one per
// (exchange, receiver), are built once each in a run and replayed from
// then on.
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
		sum := control{ways: map[string]int{}}
		for p := 0; p < tc.procs; p++ {
			c := newControl(t, w.prog, w.mem, p, false, false)
			c.exec(w.prog.Body)
			for way, n := range c.ways {
				sum.ways[way] += n
			}
			sum.nestReplayed += c.nestReplayed
			sum.nestBuilt += c.nestBuilt
		}
		built, exch, nests := sum.ways["built"], sum.ways["replayed"]+sum.ways["translated"]+sum.ways["built"], sum.nestReplayed+sum.nestBuilt
		t.Logf("%s/%s %v P=%d: exchanges %d replayed / %d translated / %d built (%.2f%% not built), nest entries %d replayed / %d built (%.2f%%)",
			tc.bench, tc.routine, tc.params, tc.procs, sum.ways["replayed"], sum.ways["translated"], built, 100*float64(exch-built)/float64(exch),
			sum.nestReplayed, sum.nestBuilt, 100*float64(sum.nestReplayed)/float64(nests))
		if want := tc.exchanges * tc.procs; built != want {
			t.Errorf("%s/%s: %d exchange schedules built, want %d a processor: %d", tc.bench, tc.routine, built, tc.exchanges, want)
		}
		if want := tc.nests * tc.procs; sum.nestBuilt != want {
			t.Errorf("%s/%s: %d nest entries built, want %d a processor: %d", tc.bench, tc.routine, sum.nestBuilt, tc.nests, want)
		}
		if tc.routine != "flux" {
			continue
		}
		c := newControl(t, w.prog, w.mem, 0, true, false)
		c.exec(w.prog.Body)
		t.Logf("%s/%s %v P=%d, simulator: deliveries %d replayed / %d translated / %d built (%.2f%% replayed)", tc.bench, tc.routine, tc.params, tc.procs,
			c.ways["replayed"], c.ways["translated"], c.ways["built"], 100*float64(c.ways["replayed"])/float64(c.ways["replayed"]+c.ways["built"]))
		if c.ways["built"] != len(c.asked) || c.ways["translated"] != 0 || c.ways["replayed"] == 0 {
			t.Errorf("%s/%s simulator: %v for %d (exchange, receiver) pairs, want each built once and replayed from then on", tc.bench, tc.routine, c.ways, len(c.asked))
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
