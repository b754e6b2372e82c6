package plan_test

import (
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/plan"
	"gcao/internal/runtime"
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

// TestScheduleKeyHoldsBoundBits: a schedule built while a slot its
// sections read was unbound — an empty one: the entry is skipped — is not
// replayed once the slot is bound, even to 0, the value an unbound slot
// holds; it is replayed while slot and bit stay, and moved — translated
// within processor 0's rows, rebuilt past them — when the value moves. So
// for the native sender's schedule and for the simulator's receive-only
// one of the receiver.
func TestScheduleKeyHoldsBoundBits(t *testing.T) {
	w := newWalker(t, placeSrc(t, afterLoopSection, map[string]int{"n": 12}, 4), 4)
	var op *plan.CommOp
	for _, n := range w.prog.Body {
		if lp, ok := n.(*plan.Loop); ok && lp.Pre != nil && len(lp.Pre.Ops[0].Slots) == 1 {
			op = &lp.Pre.Ops[0]
		}
	}
	if op == nil || op.Group.Kind != core.KindShift {
		t.Fatal("no exchange over a variable from outside its loop at a loop's preheader")
	}
	k := op.Slots[0]
	// a(0:12, 12) on 2 × 2: rows 0-6 are processor 0's, row 7 its ghost
	// margin; processor 0 sends its last column to processor 1.
	stride := w.prog.Plan.Layout.Array("a").Strides[0]
	for _, in := range []struct {
		name string
		send bool
		p    int
	}{{"processor 0 sending", true, 0}, {"processor 1 receiving only", false, 1}} {
		ss, fr := w.prog.NewSchedules(in.send), newFrame(t, w.prog, in.p, w.mem)
		runs := func() []runtime.Run { // the strip's runs, and the entry's offset
			var out []runtime.Run
			for _, e := range ss.At(fr, op, in.p).Ents {
				for _, legs := range [][]runtime.Run{e.Send, e.Recv} {
					for _, r := range legs {
						out = append(out, runtime.Run{Off: r.Off + e.Off, N: r.N})
					}
				}
			}
			return out
		}
		if n := len(runs()); n != 0 {
			t.Fatalf("%s: %d runs scheduled while k is unbound, want none", in.name, n)
		}
		fr.Bound[k] = true
		if n := len(runs()); n != 1 {
			t.Fatalf("%s: %d runs scheduled with k bound to 0, want row 0's one: the empty schedule was replayed", in.name, n)
		}
		packsFrom := func() int { // the first offset the strip holds, -1 with nothing to move
			if r := runs(); len(r) > 0 {
				return r[0].Off
			}
			return -1
		}
		first := packsFrom()
		if again := packsFrom(); again != first {
			t.Fatalf("%s: an unchanged key moved the schedule", in.name)
		}
		for _, row := range []int{5, 7, 9, 3} {
			fr.Ints[k] = row
			want := first + row*stride
			if row > 7 {
				want = -1 // no row of the strip is in reach of processor 1's block
			}
			if got := packsFrom(); got != want {
				t.Fatalf("%s, k = %d: the schedule holds the strip from offset %d, want %d", in.name, row, got, want)
			}
		}
		if allocs := testing.AllocsPerRun(20, func() {
			fr.Ints[k] = 7 - fr.Ints[k] // rows 3 and 4 in turn: translated both ways
			ss.At(fr, op, in.p)
		}); allocs != 0 {
			t.Errorf("%s: a translated schedule allocates %v times a call, want 0", in.name, allocs)
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
// on every processor as a native engine does, and once for every receiver
// as a simulator engine does, and holds, at every exchange, the schedule
// each has — replayed, translated or built — against one built from
// scratch there: the same runs at the same offsets, the same sections. It
// pins how often the native schedules are built where the gain depends on
// it: gravity at its benchmark size builds its four exchanges once a
// processor and translates them for every later plane, and a time loop
// whose sections hold still replays. (That an engine runs from the
// schedules its last run left is TestReusedEngineMatchesFresh's.)
func TestTranslatedScheduleMatchesRebuilt(t *testing.T) {
	type row struct {
		bench, routine string
		params         map[string]int
		procs          int
		built          int // schedules one native processor builds; -1: not pinned
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
		w := newWalker(t, placeSrc(t, src, tc.params, tc.procs), tc.procs)
		ways := map[string]int{}
		for p := 0; p < tc.procs; p++ {
			c := newControl(t, w.prog, w.mem, p, false, true)
			c.exec(w.prog.Body)
			for way, n := range c.ways {
				ways[way] += n
			}
		}
		sim := newControl(t, w.prog, w.mem, 0, true, true)
		sim.exec(w.prog.Body)
		t.Logf("%s/%s %v P=%d: native exchanges %d replayed / %d translated / %d built; simulator deliveries %v",
			tc.bench, tc.routine, tc.params, tc.procs, ways["replayed"], ways["translated"], ways["built"], sim.ways)
		if want := tc.built * tc.procs; tc.built >= 0 && ways["built"] != want {
			t.Errorf("%s/%s: %d exchange schedules built, want %d a processor: %d", tc.bench, tc.routine, ways["built"], tc.built, want)
		}
	}
}
