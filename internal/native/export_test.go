package native

import (
	"fmt"

	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/plan"
	"gcao/internal/spmd"
)

// Run executes the placement natively on procs goroutines, on an engine
// of its own.
func Run(res *core.Result, procs int) (*RunResult, error) {
	eng, err := NewEngine(res, procs)
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// VerifyAgainstSimulator runs the placement on both backends and compares
// their final states (Diff). Both run the same lowered program, so this
// checks the two drivers against each other, not lowering itself: the
// independent reference for that is package refeval, which the tests
// hold both backends against.
func VerifyAgainstSimulator(res *core.Result, m machine.Machine, procs int) error {
	sim, err := spmd.RunParallel(res, m, procs, 0)
	if err != nil {
		return fmt.Errorf("native: simulator reference failed: %w", err)
	}
	nat, err := Run(res, procs)
	if err != nil {
		return fmt.Errorf("native: native run failed: %w", err)
	}
	return Diff(nat, sim)
}

// ProgramOf returns the lowered program an engine runs, for tests that
// alter it between runs.
func ProgramOf(eng *Engine) *plan.Program { return eng.prog }

// EngineOf builds an engine on an already lowered program, for tests that
// count what building one allocates apart from lowering.
func EngineOf(prog *plan.Program, procs int) (*Engine, error) { return newEngine(prog, procs) }

// MaxProcs is the oversubscription clamp NewEngine enforces.
func MaxProcs() int { return maxProcs() }

// RunnerIdle is how long a parked runner waits before it exits.
const RunnerIdle = runnerIdle

// SetRunnerCap bounds the runners at n instead of MaxProcs until the
// returned function restores the bound.
func SetRunnerCap(n int) (restore func()) {
	runnerMu.Lock()
	defer runnerMu.Unlock()
	runnerCap = func() int { return n }
	return func() {
		runnerMu.Lock()
		defer runnerMu.Unlock()
		runnerCap = maxProcs
	}
}
