package prof

import (
	"math"
	"testing"
)

func TestRingWraparoundKeepsNewest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 7; i++ {
		r.Record(Event{Start: int64(i), Step: int32(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", r.Dropped())
	}
	evs := r.Snapshot()
	for i, ev := range evs {
		if want := int64(3 + i); ev.Start != want {
			t.Fatalf("snapshot[%d].Start = %d, want %d (oldest-first)", i, ev.Start, want)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatalf("after reset: len=%d dropped=%d", r.Len(), r.Dropped())
	}
}

func TestNewRingRoundsUpAndDefaults(t *testing.T) {
	if got := NewRing(0).max; got != DefaultRingSize {
		t.Fatalf("default capacity = %d, want %d", got, DefaultRingSize)
	}
	if got := NewRing(5).max; got != 8 {
		t.Fatalf("capacity for 5 = %d, want 8", got)
	}
	if got := len(NewRing(0).buf); got != 1<<10 {
		t.Fatalf("a default ring starts at %d events, want 1Ki", got)
	}
}

// TestRingGrowth: a ring doubles, order and Snapshot preserved, up to
// the capacity it was built for and drops only there; Reset keeps what it
// grew to, so a second pass of the same length allocates nothing.
func TestRingGrowth(t *testing.T) {
	const capacity = 1 << 12
	r := NewRing(capacity)
	fill := func(n int) {
		for i := 0; i < n; i++ {
			r.Record(Event{Start: int64(i), Step: PendingStep})
		}
	}
	fill(3000)
	if r.Len() != 3000 || r.Dropped() != 0 || len(r.buf) != capacity {
		t.Fatalf("after 3000 events: len=%d dropped=%d buf=%d", r.Len(), r.Dropped(), len(r.buf))
	}
	for i, ev := range r.Snapshot() {
		if ev.Start != int64(i) {
			t.Fatalf("snapshot[%d].Start = %d after growth", i, ev.Start)
		}
	}
	r.PatchPending(7, 1)
	if ev := r.Snapshot()[0]; ev.Step != 7 {
		t.Fatalf("PatchPending stopped at a growth boundary: first event has step %d", ev.Step)
	}
	fill(capacity - 3000 + 5)
	if r.Len() != capacity || r.Dropped() != 5 || len(r.buf) != capacity {
		t.Fatalf("at the cap: len=%d dropped=%d buf=%d", r.Len(), r.Dropped(), len(r.buf))
	}
	if ev := r.Snapshot()[0]; ev.Start != 5 {
		t.Fatalf("oldest survivor = %d, want 5", ev.Start)
	}
	r.Reset()
	if len(r.buf) != capacity {
		t.Fatalf("Reset shrank the buffer to %d", len(r.buf))
	}
	if n := testing.AllocsPerRun(5, func() { r.Reset(); fill(3000) }); n != 0 {
		t.Fatalf("a warm pass allocated %v times", n)
	}
}

func TestRingRecordDoesNotAllocate(t *testing.T) {
	r := NewRing(1 << 10)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			r.Record(Event{Start: int64(i), Dur: 1, Step: 0, Site: 0, Phase: PhaseSend})
		}
	})
	if allocs != 0 {
		t.Fatalf("Record allocated %.1f allocs/run, want 0", allocs)
	}
}

// foldFixture builds a two-processor, two-superstep profile:
//
//	proc 0: [0,10) compute, [10,20) send step 0, [20,30) compute, [30,40) sum step 1, end 45
//	proc 1: [0,30) compute, [30,35) recv-wait step 0, end 40 (step 1 never blocks here)
func foldFixture() *NativeProfile {
	r0, r1 := NewRing(16), NewRing(16)
	r0.Record(Event{Start: 10, Dur: 10, Step: 0, Site: 0, Phase: PhaseSend})
	r0.Record(Event{Start: 30, Dur: 10, Step: 1, Site: 1, Phase: PhaseSum})
	r1.Record(Event{Start: 30, Dur: 5, Step: 0, Site: 0, Phase: PhaseRecvWait})
	return Fold([]string{"v/g0@pos/NNC", "v/g1@pos/SUM"}, []*Ring{r0, r1}, []int64{45, 40}, 50)
}

func TestFoldTilesWallTime(t *testing.T) {
	p := foldFixture()
	// Compute gaps + blocked spans must tile each processor's wall
	// time exactly.
	for q, ps := range p.ProcTotals {
		sum := ps.ComputeSeconds + ps.BlockedSeconds
		if math.Abs(sum-ps.WallSeconds) > 1e-12 {
			t.Errorf("proc %d: compute+blocked = %g, wall = %g", q, sum, ps.WallSeconds)
		}
	}
	p0 := p.ProcTotals[0]
	if p0.ComputeSeconds != 25e-9 || p0.SendSeconds != 10e-9 || p0.SumSeconds != 10e-9 {
		t.Errorf("proc 0 split = compute %g send %g sum %g", p0.ComputeSeconds, p0.SendSeconds, p0.SumSeconds)
	}
	p1 := p.ProcTotals[1]
	if math.Abs(p1.ComputeSeconds-35e-9) > 1e-15 || p1.RecvWaitSeconds != 5e-9 {
		t.Errorf("proc 1 split = compute %g recv %g", p1.ComputeSeconds, p1.RecvWaitSeconds)
	}
}

func TestFoldStepAttribution(t *testing.T) {
	p := foldFixture()
	if len(p.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(p.Steps))
	}
	s0 := p.Steps[0]
	if s0.Site != 0 || s0.Events != 2 {
		t.Fatalf("step 0 = %+v", s0)
	}
	// Gaps attribute to the following event's step: proc 0's leading
	// 10ns and proc 1's leading 30ns both precede step-0 events.
	if s0.ComputeSec[0] != 10e-9 || s0.ComputeSec[1] != 30e-9 {
		t.Errorf("step 0 compute = %v", s0.ComputeSec)
	}
	// CommSec is the max blocked across procs: proc 0 sent for 10ns.
	if s0.CommSec != 10e-9 {
		t.Errorf("step 0 comm = %g, want 10e-9", s0.CommSec)
	}
	s1 := p.Steps[1]
	if s1.Site != 1 || s1.ComputeSec[0] != 10e-9 || s1.CommSec != 10e-9 {
		t.Errorf("step 1 = %+v", s1)
	}
	// Skew: step 0 max 30 mean 20, step 1 max 10 mean 5.
	want := (30.0 + 10.0) / (20.0 + 5.0)
	if math.Abs(p.SkewRatio-want) > 1e-12 {
		t.Errorf("skew = %g, want %g", p.SkewRatio, want)
	}
	// Proc 1 is the step-0 straggler, proc 0 the step-1 straggler —
	// both had one max-compute step, so the ranking is stable order.
	if p.ProcTotals[0].StragglerSteps != 1 || p.ProcTotals[1].StragglerSteps != 1 {
		t.Errorf("straggler steps = %d, %d", p.ProcTotals[0].StragglerSteps, p.ProcTotals[1].StragglerSteps)
	}
}

func TestFoldTruncationStartsAtOldestSurvivor(t *testing.T) {
	r := NewRing(2)
	r.Record(Event{Start: 10, Dur: 5, Step: 0, Site: 0, Phase: PhaseSend})
	r.Record(Event{Start: 20, Dur: 5, Step: 1, Site: 0, Phase: PhaseSend})
	r.Record(Event{Start: 30, Dur: 5, Step: 2, Site: 0, Phase: PhaseSend})
	p := Fold([]string{"s"}, []*Ring{r}, []int64{40}, 40)
	if !p.Truncated {
		t.Fatal("profile not marked truncated")
	}
	// The head was overwritten: compute starts at the oldest
	// survivor (20), so gaps are 0 + 5 + tail 5.
	if got := p.ProcTotals[0].ComputeSeconds; got != 10e-9 {
		t.Errorf("compute = %g, want 10e-9", got)
	}
}

func TestPhaseString(t *testing.T) {
	for p, want := range map[Phase]string{
		PhaseCompute: "compute", PhaseSend: "send", PhaseRecvWait: "recv-wait",
		PhaseTreeWait: "tree-wait", PhaseSum: "sum",
	} {
		if p.String() != want {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), want)
		}
	}
}
