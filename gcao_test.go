package gcao_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"gcao"
	"gcao/internal/bench"
)

const apiSrc = `
routine relax(n, steps)
real a(n, n), b(n, n)
!hpf$ distribute (block, block) :: a, b
do i = 1, n
do j = 1, n
a(i, j) = i + j
b(i, j) = 0
enddo
enddo
do it = 1, steps
do i = 2, n - 1
do j = 2, n - 1
b(i, j) = a(i - 1, j) + a(i + 1, j) + b(i, j)
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
a(i, j) = b(i, j) * 0.5
enddo
enddo
enddo
end
`

// procsSrc is the F90 form of examples/syntax: a PROCESSORS directive
// names the grid the arrays are distributed onto.
const procsSrc = `
routine f90(n)
real a(n), b(n), c(n)
!hpf$ processors p(4)
!hpf$ distribute (block) onto p :: a, b, c
a(1:n) = 3
b(1:n) = 4
c(2:n) = a(1:n-1) + b(1:n-1)
end
`

func TestPublicAPI(t *testing.T) {
	cfg := gcao.Config{Params: map[string]int{"n": 12, "steps": 2}, Procs: 4}
	c, err := gcao.Compile(apiSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Entries()) != 2 {
		t.Fatalf("entries = %d, want 2 (a up and down)", len(c.Entries()))
	}

	orig, err := c.Place(gcao.Vectorize, nil)
	if err != nil {
		t.Fatal(err)
	}
	comb, err := c.Place(gcao.Combine, nil)
	if err != nil {
		t.Fatal(err)
	}
	if comb.Messages() > orig.Messages() {
		t.Errorf("comb %d messages > orig %d", comb.Messages(), orig.Messages())
	}

	run, err := comb.Simulate(gcao.SP2(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Ledger.DynMessages == 0 {
		t.Error("expected dynamic messages")
	}
	if err := comb.Verify(); err != nil {
		t.Fatal(err)
	}
	// A PROCESSORS directive sets the grid over Config.Procs; the
	// sequential reference drops it.
	directed, err := gcao.Compile(procsSrc, gcao.Config{Params: map[string]int{"n": 64}, Procs: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := directed.Analysis.Unit.Grid.NumProcs(); got != 4 {
		t.Fatalf("grid of %d processors, want the directive's 4", got)
	}
	for _, s := range []gcao.Strategy{gcao.Vectorize, gcao.Combine} {
		p, err := directed.Place(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}

	now, err := gcao.MachineByName("NOW")
	if err != nil {
		t.Fatal(err)
	}
	cost, err := comb.Estimate(now)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Total() <= 0 || cost.Net <= 0 {
		t.Errorf("cost = %+v", cost)
	}

	bars, err := c.CompareStrategies(gcao.SP2())
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != 3 || bars[2].Net > bars[0].Net {
		t.Errorf("bars = %+v", bars)
	}
}

func TestStrategyStrings(t *testing.T) {
	if gcao.Vectorize.String() != "orig" ||
		gcao.EarliestRedundancy.String() != "nored" ||
		gcao.Combine.String() != "comb" {
		t.Error("strategy names must match the paper's table")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := gcao.Compile("routine f(\n", gcao.Config{}); err == nil {
		t.Error("parse error must propagate")
	}
	_, err := gcao.Compile(apiSrc, gcao.Config{Params: map[string]int{"n": 8}, Procs: 4})
	if err == nil || !strings.Contains(err.Error(), "steps") {
		t.Errorf("missing parameter must be reported: %v", err)
	}
	// A call to a routine the text does not define is never inlined; sem
	// reports it at its position, so the CFG builder never sees a call.
	const callSrc = "routine f(n)\nreal a(n)\na(1) = 0\ncall foo(a, n)\nend\n"
	_, err = gcao.Compile(callSrc, gcao.Config{Params: map[string]int{"n": 8}, Procs: 4})
	if err == nil || !strings.Contains(err.Error(), `4:1: sem: call to "foo" not inlined`) {
		t.Errorf("a call to an unknown routine must be a positioned error: %v", err)
	}
}

func TestMachineByName(t *testing.T) {
	if _, err := gcao.MachineByName("SP2"); err != nil {
		t.Error(err)
	}
	if _, err := gcao.MachineByName("paragon"); err == nil {
		t.Error("unknown machine must fail")
	}
}

const interprocSrc = `
routine main(n, steps)
real a(n, n), b(n, n), ra(n, n), rb(n, n)
!hpf$ distribute (block, block) :: a, b, ra, rb
do i = 1, n
do j = 1, n
a(i, j) = i + 2 * j
b(i, j) = 3 * i - j
ra(i, j) = 0
rb(i, j) = 0
enddo
enddo
do it = 1, steps
call relaxstep(a, ra, n)
call relaxstep(b, rb, n)
do i = 2, n - 1
do j = 2, n - 1
a(i, j) = a(i, j) + 0.1 * ra(i, j)
b(i, j) = b(i, j) + 0.1 * rb(i, j)
enddo
enddo
enddo
end

routine relaxstep(q, r, n)
real q(n, n), r(n, n)
do i = 2, n - 1
do j = 2, n - 1
r(i, j) = q(i - 1, j) + q(i + 1, j) + q(i, j - 1) + q(i, j + 1) - 4 * q(i, j)
enddo
enddo
end
`

// TestInterprocedural exercises the §7 interprocedural direction:
// after inlining, the global algorithm combines the exchanges of the
// two relaxstep invocations across the former procedure boundary
// (a and b travel together per direction), and the result is verified
// functionally.
func TestInterprocedural(t *testing.T) {
	cfg := gcao.Config{Params: map[string]int{"n": 12, "steps": 2}, Procs: 4}
	c, err := gcao.CompileProgram(interprocSrc, "main", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Entries()); got != 8 {
		t.Fatalf("entries = %d, want 8 (2 arrays x 4 directions)", got)
	}
	orig, err := c.Place(gcao.Vectorize, nil)
	if err != nil {
		t.Fatal(err)
	}
	comb, err := c.Place(gcao.Combine, nil)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Messages() != 8 {
		t.Errorf("orig = %d messages, want 8", orig.Messages())
	}
	if comb.Messages() != 4 {
		for _, g := range comb.Result.Groups {
			t.Logf("%v", g)
		}
		t.Errorf("comb = %d messages, want 4 (cross-procedure combining)", comb.Messages())
	}
	// Each combined exchange carries both arrays.
	for _, g := range comb.Result.Groups {
		arrays := map[string]bool{}
		for _, e := range g.Entries {
			arrays[e.Array] = true
		}
		if !arrays["a"] || !arrays["b"] {
			t.Errorf("group %v does not span the two call sites", g)
		}
	}
	// Functional verification: the parallel run matches the sequential
	// one, the flattened routine compiled again at P=1.
	for _, p := range []*gcao.Placed{orig, comb} {
		if err := p.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecorderGetsOnlyItsCall: every operation records into the recorder
// it is given and into nothing else. One uncached compilation is placed
// and simulated from eight goroutines at once, each handing both calls a
// recorder of its own, beside a ninth that hands them none: each recorder
// ends up with exactly what one place-and-simulate records alone — one
// place.comb counter set, its own decision log, its own profile — and the
// compile's recorder receives nothing after Compile returns.
func TestRecorderGetsOnlyItsCall(t *testing.T) {
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		t.Fatal(err)
	}
	compRec := gcao.NewRecorder()
	c, err := gcao.Compile(pr.Source, gcao.Config{Params: pr.Params(8), Procs: 4, Obs: compRec})
	if err != nil {
		t.Fatal(err)
	}
	compiled := compRec.Doc()
	run := func(rec *gcao.Recorder) error {
		p, err := c.Place(gcao.Combine, rec)
		if err != nil {
			return err
		}
		out, err := p.Simulate(gcao.SP2(), rec)
		if err != nil {
			return err
		}
		out.Release()
		return nil
	}
	want := gcao.NewRecorder()
	if err := run(want); err != nil {
		t.Fatal(err)
	}
	const callers = 8
	recs := make([]*gcao.Recorder, callers+1) // the last stays nil
	errs := make([]error, len(recs))
	var wg sync.WaitGroup
	for i := range recs {
		if i < callers {
			recs[i] = gcao.NewRecorder()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = run(recs[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if len(want.Decisions()) != len(c.Analysis.Entries) || want.Counter("place.comb.entries") == 0 || want.CommProfile() == nil {
		t.Fatalf("one recorded call: %d decisions for %d entries, counters %v", len(want.Decisions()), len(c.Analysis.Entries), want.Counters())
	}
	wantSpans := spanCounts(want)
	for i, rec := range recs[:callers] {
		if got := rec.Counters(); !reflect.DeepEqual(got, want.Counters()) {
			t.Errorf("caller %d: counters %v, want one call's %v", i, got, want.Counters())
		}
		if got := rec.Decisions(); !reflect.DeepEqual(got, want.Decisions()) {
			t.Errorf("caller %d: %d decisions, want one call's %d", i, len(got), len(want.Decisions()))
		}
		if got := rec.CommProfile(); !reflect.DeepEqual(got.PairBytes, want.CommProfile().PairBytes) {
			t.Errorf("caller %d: pair matrix %v, want %v", i, got.PairBytes, want.CommProfile().PairBytes)
		}
		if got := rec.Attribution(); got.TotalBytes() != want.Attribution().TotalBytes() || len(got.Steps) != len(want.Attribution().Steps) {
			t.Errorf("caller %d: %d supersteps moving %d bytes, want %d moving %d", i,
				len(got.Steps), got.TotalBytes(), len(want.Attribution().Steps), want.Attribution().TotalBytes())
		}
		if got := spanCounts(rec); !reflect.DeepEqual(got, wantSpans) {
			t.Errorf("caller %d: spans %v, want %v", i, got, wantSpans)
		}
	}
	if after := compRec.Doc(); !reflect.DeepEqual(after, compiled) {
		t.Errorf("the compile's recorder changed after Compile returned: %d → %d spans, counters %v → %v, %d decisions",
			len(compiled.Spans), len(after.Spans), compiled.Counters, after.Counters, len(after.Decisions))
	}
}
