package bench

import (
	"os"
	"strconv"
	"testing"

	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/parser"
	"gcao/internal/refeval"
	"gcao/internal/runtime"
	"gcao/internal/sem"
	"gcao/internal/spmd"
)

// TestRandomProgramsEndToEnd fuzzes the whole compiler: for dozens of
// random programs, all three placement strategies must produce
// schedules that deliver exactly the data each computation reads
// (validity tracking) and compute results identical to a sequential
// execution.
func TestRandomProgramsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz harness skipped in -short mode")
	}
	maxSeed := int64(40)
	if s := os.Getenv("GCAO_FUZZ_SEEDS"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			maxSeed = v
		}
	}
	m := machine.SP2()
	gen := &progGen{}
	for seed := int64(1); seed <= maxSeed; seed++ {
		src := gen.generate(seed)
		params := map[string]int{"n": 8, "steps": 2}

		compileAt := func(procs int) (*core.Analysis, error) {
			r, err := parser.ParseRoutine(src)
			if err != nil {
				return nil, err
			}
			u, err := sem.Analyze(r, params, sem.Options{Procs: procs})
			if err != nil {
				return nil, err
			}
			return core.NewAnalysis(u)
		}

		seqA, err := compileAt(1)
		if err != nil {
			t.Fatalf("seed %d: sequential compile: %v\n%s", seed, err, src)
		}
		seqRes, err := seqA.Place(core.Options{Version: core.VersionCombine})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		seq, err := spmd.RunParallel(seqRes, m, 1, 0)
		if err != nil {
			t.Fatalf("seed %d: sequential run: %v\n%s", seed, err, src)
		}
		// The single-processor run every version is compared with below
		// is itself the lowered program: hold it against the independent
		// reference evaluator, bit for bit.
		ref, err := refeval.Run(seqA)
		if err != nil {
			t.Fatalf("seed %d: reference: %v\n%s", seed, err, src)
		}
		if err := ref.Check(seq.Mem, seq.Scalars); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}

		a, err := compileAt(4)
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}
		for _, v := range []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine} {
			res, err := a.Place(core.Options{Version: v})
			if err != nil {
				t.Fatalf("seed %d %v: place: %v\n%s", seed, v, err, src)
			}
			run, err := spmd.RunParallel(res, m, 4, 0)
			if err != nil {
				t.Fatalf("seed %d %v: run: %v\n%s", seed, v, err, src)
			}
			if err := runtime.CompareState(run.Mem, seq.Mem, run.Scalars, seq.Scalars); err != nil {
				t.Fatalf("seed %d %v: %v\n%s", seed, v, err, src)
			}
		}
	}
}
