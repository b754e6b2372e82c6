package gcao_test

import (
	"testing"

	"gcao"
	"gcao/internal/native"
	"gcao/internal/plan"
	"gcao/internal/runtime"
	"gcao/internal/spmd"
)

// TestSecondEngineLowersNothing: a Placed lowers once. Every engine built
// for it after the first — here each run builds one, no result being
// released — shares the program and, through it, the array layout with its
// ownership tables: building it allocates what a fresh engine's image,
// frames and fabric allocate, that is a package-level run's figure less
// plan.Lower's whole share, on both backends.
func TestSecondEngineLowersNothing(t *testing.T) {
	p := placedShallow(t, 12, 4)
	m := gcao.SP2()
	first, err := p.Simulate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	lowering := testing.AllocsPerRun(5, func() { plan.Lower(p.Result) })
	for _, backend := range []struct {
		name          string
		fresh, placed func() (*runtime.Memory, error)
	}{
		{"simulator",
			func() (*runtime.Memory, error) { out, err := spmd.RunParallel(p.Result, m, 4, 0); return out.Mem, err },
			func() (*runtime.Memory, error) { out, err := p.Simulate(m, nil); return out.Mem, err }},
		{"native",
			func() (*runtime.Memory, error) {
				eng, err := native.NewEngine(p.Result, 4)
				if err != nil {
					return nil, err
				}
				out, err := eng.Run()
				return out.Mem, err
			},
			func() (*runtime.Memory, error) { out, err := p.RunNative(nil); return out.Mem, err }},
	} {
		var mem *runtime.Memory
		measure := func(run func() (*runtime.Memory, error)) float64 {
			return testing.AllocsPerRun(5, func() {
				if mem, err = run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		fresh := measure(backend.fresh)
		if mem.Layout == first.Mem.Layout {
			t.Fatalf("%s: a package-level run shares the placement's layout", backend.name)
		}
		placed := measure(backend.placed)
		if mem == first.Mem || mem.Layout != first.Mem.Layout || mem.Layout != p.Program().Plan.Layout {
			t.Errorf("%s: an engine built for a lowered placement has an array layout of its own (or no image of its own)", backend.name)
		}
		t.Logf("%s: fresh engine and run %.0f allocations, plan.Lower %.0f, engine and run on the placement's program %.0f", backend.name, fresh, lowering, placed)
		if slack := 0.03 * fresh; placed > fresh-lowering+slack || placed < fresh-lowering-slack {
			t.Errorf("%s: building an engine on the placement's program and running it allocates %.0f, want the fresh figure %.0f less lowering's %.0f", backend.name, placed, fresh, lowering)
		}
	}
}
