package spmd

import (
	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/obs"
	"gcao/internal/plan"
	"gcao/internal/runtime"
)

// RunParallelObs is RunParallel with an explicit recorder (nil runs
// unprofiled), for tests that compare the profiles of runs.
func RunParallelObs(res *core.Result, m machine.Machine, procs, workers int, rec *obs.Recorder) (*RunResult, error) {
	defer rec.Start("simulate:" + res.Version.String())()
	eng, err := NewEngine(res, procs, workers)
	if err != nil {
		return nil, err
	}
	return eng.Run(m, rec)
}

// NewEngine prepares a simulation of the placement on procs processors
// and workers shards, on a lowering of its own, for tests that run one
// engine more than once.
func NewEngine(res *core.Result, procs, workers int) (*Engine, error) {
	return newEngine(plan.Lower(res), procs, workers)
}

// EngineOf builds an engine around a lowered program, for tests that
// count what building one allocates apart from lowering.
func EngineOf(prog *plan.Program, procs, workers int) (*Engine, error) {
	return newEngine(prog, procs, workers)
}

// UnitPrograms hands the unit tests' programs to the external test
// package, which checks them against the reference evaluator.
var UnitPrograms = []struct {
	Name, Src string
	Params    map[string]int
	Procs     int
}{
	{"stencil", stencilSrc, map[string]int{"n": 10, "steps": 2}, 4},
	{"reduce", reduceSrc, map[string]int{"n": 8}, 4},
	{"branch", branchSrc, map[string]int{"n": 8}, 4},
	{"zero-trip", zeroTripSrc, map[string]int{"n": 8}, 4},
	{"negative-step", negStepSrc, map[string]int{"n": 9}, 2},
	{"replicated-intrinsics", replicatedSrc, map[string]int{"n": 8}, 4},
	{"variable-after-strided-loop", afterLoopSrc, map[string]int{"n": 9}, 4},
	{"mini-gravity", miniGravitySrc, map[string]int{"nx": 6, "ny": 13, "nz": 13, "steps": 3}, 16},
}

// Memory returns the engine's memory image, which a failed run leaves as
// it was when it stopped.
func (eng *Engine) Memory() *runtime.Memory { return eng.mem }

// StencilSrc is the unit tests' two-nest stencil, for the external test
// package.
const StencilSrc = stencilSrc

// afterLoopSrc reads loop variables after strided loops whose last
// iteration stops short of the bound, and after a zero-trip loop.
const afterLoopSrc = `
routine la(n)
real a(n)
real x, y, z
integer i, j
!hpf$ distribute (block) :: a
do i = 1, n
a(i) = 0
enddo
do i = 1, n, 3
a(i) = i
enddo
x = i
do j = n, 2, -4
a(j) = j + x
enddo
y = j
do i = 5, 4
a(i) = 99
enddo
z = i
end
`
