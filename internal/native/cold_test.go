package native_test

import (
	"testing"

	"gcao/internal/bench"
	"gcao/internal/native"
	"gcao/internal/plan"
)

// TestColdNativeRunAllocs pins what each stage of a cold native run
// allocates on sim-verify's configuration (hydflo/flux, n = 16, 4 steps,
// P = 16, comb), the stages BenchmarkColdRun/native times together:
// lowering, the engine around the lowered program (image, schedules,
// fabric, frames) and its first run, whose message buffers and exchange
// schedules are sized as they are first used. Each budget is 1.25× the
// count measured once lowering sized its stacks from counts: Lower 51, the
// engine 231, the first Run 250 — 532 in all, where the simulator's cold
// run is 82 (TestColdSimRunAllocs in internal/spmd).
func TestColdNativeRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves stack allocations to the heap")
	}
	pr, err := bench.ByName("hydflo", "flux")
	if err != nil {
		t.Fatal(err)
	}
	res := placeSrc(t, pr.Source, map[string]int{"n": 16, "steps": 4}, 16)
	prog := plan.Lower(res)
	const runs = 10
	engines := make([]*native.Engine, 0, runs+1)
	for range runs + 1 {
		eng, err := native.EngineOf(prog, 16)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, eng)
	}
	for _, stage := range []struct {
		name   string
		budget float64
		f      func()
	}{
		{"Lower", 63, func() { plan.Lower(res) }},
		{"the engine", 288, func() {
			if _, err := native.EngineOf(prog, 16); err != nil {
				t.Fatal(err)
			}
		}},
		{"the first Run", 312, func() {
			eng := engines[len(engines)-1]
			engines = engines[:len(engines)-1]
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		n := testing.AllocsPerRun(runs, stage.f)
		if n > stage.budget {
			t.Errorf("%s allocates %v objects, budget %v", stage.name, n, stage.budget)
		} else {
			t.Logf("%s %v allocations", stage.name, n)
		}
	}
}
