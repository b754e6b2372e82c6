package native

import "gcao/internal/plan"

// ProgramOf returns the lowered program an engine runs, for tests that
// alter it between runs.
func ProgramOf(eng *Engine) *plan.Program { return eng.prog }

// MaxProcs is the oversubscription clamp NewEngine enforces.
func MaxProcs() int { return maxProcs() }
