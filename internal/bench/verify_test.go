package bench

import (
	"testing"

	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/runtime"
	"gcao/internal/spmd"
)

// TestFunctionalEquivalence is the end-to-end soundness proof of every
// placement strategy: each benchmark is executed on the functional
// simulator under orig, nored and comb placements and compared
// elementwise against a single-processor run. The simulator's validity
// tracking aborts on any read of data a processor neither owns nor
// received, so a pass means each placement communicates exactly the
// data the computation needs.
func TestFunctionalEquivalence(t *testing.T) {
	sizes := map[string]int{
		"shallow/main":    8,
		"gravity/main":    6,
		"trimesh/normdot": 8,
		"trimesh/gauss":   8,
		"hydflo/flux":     5,
		"hydflo/hydro":    5,
	}
	m := machine.SP2()
	for _, pr := range Programs() {
		pr := pr
		n := sizes[pr.Bench+"/"+pr.Routine]
		if n == 0 {
			t.Fatalf("no test size for %s/%s", pr.Bench, pr.Routine)
		}
		t.Run(pr.Bench+"/"+pr.Routine, func(t *testing.T) {
			// Sequential reference.
			seqA, err := pr.Compile(n, 1)
			if err != nil {
				t.Fatalf("compile seq: %v", err)
			}
			seqRes, err := seqA.Place(core.Options{Version: core.VersionCombine})
			if err != nil {
				t.Fatalf("place seq: %v", err)
			}
			seq, err := spmd.RunParallel(seqRes, m, 1, 0)
			if err != nil {
				t.Fatalf("run seq: %v", err)
			}

			for _, procs := range []int{4, 9} {
				a, err := pr.Compile(n, procs)
				if err != nil {
					t.Fatalf("compile P=%d: %v", procs, err)
				}
				var msgs []int
				for _, v := range []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine} {
					res, err := a.Place(core.Options{Version: v})
					if err != nil {
						t.Fatalf("place %v: %v", v, err)
					}
					run, err := spmd.RunParallel(res, m, procs, 0)
					if err != nil {
						t.Fatalf("P=%d %v: functional run failed: %v", procs, v, err)
					}
					if err := runtime.CompareState(run.Mem, seq.Mem, run.Scalars, seq.Scalars); err != nil {
						t.Errorf("P=%d %v: %v", procs, v, err)
					}
					msgs = append(msgs, run.Ledger.DynMessages)
				}
				// The optimized placement must not move more messages
				// than the baseline.
				if msgs[2] > msgs[0] {
					t.Errorf("P=%d: comb moved %d dynamic messages, orig moved %d", procs, msgs[2], msgs[0])
				}
				t.Logf("P=%d dynamic messages: orig=%d nored=%d comb=%d", procs, msgs[0], msgs[1], msgs[2])
			}
		})
	}
}
