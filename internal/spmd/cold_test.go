package spmd_test

import (
	"runtime/debug"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/machine"
	"gcao/internal/plan"
	"gcao/internal/spmd"
)

// TestColdSimRunAllocs pins what each stage of a cold simulator run
// allocates on sim-verify's configuration (hydflo/flux, n = 16, 4 steps,
// P = 16, comb) at one and two shards, so that the next regression names
// its stage: lowering, the memory image, the receivers' schedules, the
// engine around them (image and schedules included) and its first run.
// Each budget is 1.25× the count measured once lowering sized its stacks
// from counts and the engine carved its shards' tables from one slab per
// element type: Lower 51, NewMemory 6, NewSchedules 4, the engine 23 at one
// shard and 29 at two (a frame of six more a shard), the first Run 6 and 7
// (a goroutine more a shard).
func TestColdSimRunAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector moves stack allocations to the heap")
			}
		}
	}
	pr, err := bench.ByName("hydflo", "flux")
	if err != nil {
		t.Fatal(err)
	}
	res := placeSrc(t, pr.Source, map[string]int{"n": 16, "steps": 4}, 16)
	prog := plan.Lower(res)
	const runs = 10
	for _, tc := range []struct {
		workers       int
		engine, first float64
	}{{1, 28, 7}, {2, 36, 8}} {
		engines := make([]*spmd.Engine, 0, runs+1)
		for range runs + 1 {
			eng, err := spmd.EngineOf(prog, 16, tc.workers)
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
			{"NewMemory", 7, func() { prog.Plan.Layout.NewMemory() }},
			{"NewSchedules", 5, func() { prog.NewSchedules(false) }},
			{"the engine", tc.engine, func() {
				if _, err := spmd.EngineOf(prog, 16, tc.workers); err != nil {
					t.Fatal(err)
				}
			}},
			{"the first Run", tc.first, func() {
				eng := engines[len(engines)-1]
				engines = engines[:len(engines)-1]
				if _, err := eng.Run(machine.SP2(), nil); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			n := testing.AllocsPerRun(runs, stage.f)
			if n > stage.budget {
				t.Errorf("%d shards: %s allocates %v objects, budget %v", tc.workers, stage.name, n, stage.budget)
			} else {
				t.Logf("%d shards: %s %v allocations", tc.workers, stage.name, n)
			}
		}
	}
}
