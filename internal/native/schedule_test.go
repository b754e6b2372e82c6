package native

import (
	"testing"

	"gcao/internal/core"
	"gcao/internal/parser"
	"gcao/internal/plan"
	"gcao/internal/sem"
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
// holds; it is replayed while slot and bit stay, and rebuilt in place
// when the value moves.
func TestScheduleKeyHoldsBoundBits(t *testing.T) {
	r, err := parser.ParseRoutine(afterLoopSection)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sem.Analyze(r, map[string]int{"n": 12}, sem.Options{Procs: 4})
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
	e, err := NewEngine(res, 4)
	if err != nil {
		t.Fatal(err)
	}
	var op *plan.CommOp
	for _, n := range e.eng.prog.Body {
		if lp, ok := n.(*plan.Loop); ok && lp.Pre != nil && len(lp.Pre.Ops[0].Slots) == 1 {
			op = &lp.Pre.Ops[0]
		}
	}
	if op == nil || op.Group.Kind != core.KindShift {
		t.Fatal("no exchange over a variable from outside its loop at a loop's preheader")
	}
	k := op.Slots[0]
	// Processor 0 of the 2 × 2 grid sends its last column to processor 1.
	pc := e.eng.ps[0]
	runs := func() int { return len(pc.schedule(op, 1, -1).send) }

	if n := runs(); n != 0 {
		t.Fatalf("%d runs scheduled while k is unbound, want none", n)
	}
	pc.fr.Bound[k] = true
	if n := runs(); n != 1 {
		t.Fatalf("%d runs scheduled with k bound to 0, want row 0's one: the empty schedule was replayed", n)
	}
	first := &pc.schedule(op, 1, -1).send[0].data[0]
	if again := &pc.schedule(op, 1, -1).send[0].data[0]; again != first {
		t.Fatal("an unchanged key rebuilt the schedule somewhere else")
	}
	pc.fr.Ints[k] = 5
	if moved := &pc.schedule(op, 1, -1).send[0].data[0]; moved == first {
		t.Fatal("the schedule still packs row 0 after k moved to 5")
	}
}
