package native_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/native"
	"gcao/internal/obs"
	"gcao/internal/plan"
	"gcao/internal/runtime"
	"gcao/internal/section"
	"gcao/internal/sem"
	"gcao/internal/spmd"
)

func sameBitsAll(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// requireSameImage compares two memory images of one unit row by row —
// every processor's data and validity plane, ghost copies included — and
// the scalar maps, bit for bit, and checks the ghost hulls of the first.
func requireSameImage(t *testing.T, what string, got, want *runtime.Memory, gotScal, wantScal map[string]float64) {
	t.Helper()
	if err := got.CheckHulls(); err != nil {
		t.Errorf("%s: %v", what, err)
	}
	for _, name := range want.Unit.ArrayNames {
		g, w := got.View(name), want.View(name)
		for p := range w.Data {
			if !sameBitsAll(g.Data[p], w.Data[p]) {
				t.Errorf("%s: %s row of processor %d differs", what, name, p)
			}
			if !reflect.DeepEqual(g.ValidPlane(p), w.ValidPlane(p)) {
				t.Errorf("%s: %s validity plane of processor %d differs", what, name, p)
			}
		}
	}
	if len(gotScal) != len(wantScal) {
		t.Errorf("%s: scalars %v, want %v", what, gotScal, wantScal)
	}
	for k, v := range wantScal {
		if g, ok := gotScal[k]; !ok || math.Float64bits(g) != math.Float64bits(v) {
			t.Errorf("%s: scalar %s = %v, want %v", what, k, g, v)
		}
	}
}

// TestReusedEngineMatchesFresh: runs 1-4 of one native engine leave what
// a run on a new engine leaves: memory image and validity planes, scalars
// and traffic counts, with the profiler on the odd runs and off on the
// even ones, so what one run attaches the next does not inherit. The
// fabric allocates on an engine's first run only, and the last run still
// matches the simulator's. The simulator engine's half of the property is
// the spmd package's test of this name.
func TestReusedEngineMatchesFresh(t *testing.T) {
	for _, name := range [][2]string{{"shallow", "main"}, {"gravity", "main"}, {"hydflo", "flux"}} {
		pr, err := bench.ByName(name[0], name[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []core.Version{core.VersionOrig, core.VersionCombine} {
			for _, p := range []int{4, 16} {
				t.Run(fmt.Sprintf("%s/%s/P%d", pr.Bench, v, p), func(t *testing.T) {
					requireReuseMatchesFresh(t, place(t, pr, 10, p, v), p)
				})
			}
		}
	}
	// The benchmarks assign everything before they read it. This program
	// reads the zeros a memory image starts from and ends with ghost copies
	// valid, so a run that began on what the last one left would show.
	t.Run("reads-initial-state", func(t *testing.T) {
		src := "routine r(n)\nreal a(n), b(n)\n!hpf$ distribute (block) :: a, b\n" +
			"do i = 1, n\na(i) = a(i) + i\nenddo\ndo i = 2, n\nb(i) = b(i) + a(i - 1)\nenddo\nend\n"
		requireReuseMatchesFresh(t, placeSrc(t, src, map[string]int{"n": 12}, 4), 4)
	})
}

func requireReuseMatchesFresh(t *testing.T, res *core.Result, p int) {
	t.Helper()
	sim, err := spmd.RunParallel(res, machine.SP2(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	freshEng, err := native.NewEngine(res, p)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := freshEng.Run()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := native.NewEngine(res, p)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 4; run++ {
		what := fmt.Sprintf("native run %d", run)
		if run%2 == 1 {
			eng.EnableProfiling(0)
		} else {
			eng.DisableProfiling()
		}
		out, err := eng.Run()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		requireSameImage(t, what, out.Mem, fresh.Mem, out.Scalars, fresh.Scalars)
		g, w := out.Stats, fresh.Stats
		if g.Messages != w.Messages || g.Bytes != w.Bytes || g.WireBytes != w.WireBytes || g.Hops != w.Hops ||
			g.Collectives != w.Collectives || g.Barriers != w.Barriers || !reflect.DeepEqual(g.Ops, w.Ops) {
			t.Errorf("%s: stats %+v, want %+v", what, g, w)
		}
		if run > 1 && g.AllocBytes != 0 {
			t.Errorf("%s: the fabric allocated %d bytes on a warm engine", what, g.AllocBytes)
		}
		if (out.Profile != nil) != (run%2 == 1) {
			t.Errorf("%s: profile present = %v", what, out.Profile != nil)
		}
		if run == 4 {
			if err := native.Diff(out, sim); err != nil {
				t.Errorf("reused native engine against the simulator: %v", err)
			}
		}
	}
}

// TestSharedProgramConcurrentEngines: one lowered Program under two
// simulator engines and two native engines at once — each goroutine with a
// pool of its own, so each builds an engine around the program and, from
// its second run on, resets and reuses it. Every run leaves the image a
// run on a fresh lowering leaves, rows and validity planes bit for bit,
// so they all agree with each other; under -race this is what holds that
// nothing reachable from a Program is written once Lower has returned.
func TestSharedProgramConcurrentEngines(t *testing.T) {
	for _, tc := range []struct {
		bench, routine string
		n, procs       int
	}{{"shallow", "main", 12, 4}, {"gravity", "main", 8, 4}, {"hydflo", "flux", 8, 9}} {
		pr, err := bench.ByName(tc.bench, tc.routine)
		if err != nil {
			t.Fatal(err)
		}
		a, err := pr.Compile(tc.n, tc.procs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Place(core.Options{Version: core.VersionCombine})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := spmd.RunParallel(res, machine.SP2(), tc.procs, 0)
		if err != nil {
			t.Fatal(err)
		}
		nat, err := native.Run(res, tc.procs)
		if err != nil {
			t.Fatal(err)
		}
		if err := native.Diff(nat, sim); err != nil {
			t.Fatal(err)
		}
		prog := plan.Lower(res)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var pool sync.Pool
				for run := 0; run < 3; run++ {
					what := fmt.Sprintf("%s/%s engine %d run %d", tc.bench, tc.routine, w, run)
					if w%2 == 0 {
						out, err := spmd.RunPooled(&pool, prog, machine.SP2(), nil)
						if err != nil {
							t.Error(err)
							return
						}
						requireSameImage(t, what+" (simulator)", out.Mem, sim.Mem, out.Scalars, sim.Scalars)
						if out.Ledger.DynMessages != sim.Ledger.DynMessages || out.Ledger.BytesMoved != sim.Ledger.BytesMoved {
							t.Errorf("%s: ledger %d messages %d bytes, fresh run %d / %d", what, out.Ledger.DynMessages, out.Ledger.BytesMoved, sim.Ledger.DynMessages, sim.Ledger.BytesMoved)
						}
						out.Release()
					} else {
						var rec *obs.Recorder // the second run is profiled
						if run == 1 {
							rec = obs.New()
						}
						out, err := native.RunPooled(&pool, prog, rec)
						if err != nil {
							t.Error(err)
							return
						}
						requireSameImage(t, what+" (native)", out.Mem, nat.Mem, out.Scalars, nat.Scalars)
						if out.Stats.Messages != nat.Stats.Messages {
							t.Errorf("%s: %d messages, fresh run %d", what, out.Stats.Messages, nat.Stats.Messages)
						}
						out.Release()
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// imageBytes sums the data planes of a memory image and the storage of its
// lists of valid boxes.
func imageBytes(mem *runtime.Memory) int {
	n := 0
	for _, am := range mem.Arrays {
		for p := range am.Data {
			n += 8 * (len(am.Data[p]) + cap(am.Boxes(p)))
		}
	}
	return n
}

// declaredBytes is what the image of a unit on p processors takes at
// declared extents: P planes of every distributed array, one of every
// replicated one.
func declaredBytes(u *sem.Unit, p int) int {
	n := 0
	for _, arr := range u.Arrays {
		copies := p
		if arr.Dist == nil {
			copies = 1
		}
		n += 9 * arr.Size() * copies
	}
	return n
}

// TestImageBytes pins the memory image of one engine of each backend — the
// data planes of every array and the storage of its lists of valid boxes —
// for the programs of the
// repository benchmark's three execution workloads at P=16: a processor
// holds its local box of each distributed array, its block and overlap
// region (§4.8), not the whole array (declaredBytes).
func TestImageBytes(t *testing.T) {
	for _, tc := range []struct {
		bench, routine  string
		params          map[string]int
		bytes, declared int
	}{
		{"hydflo", "flux", map[string]int{"n": 16, "steps": 4}, 1127424, 8398080},
		{"gravity", "main", map[string]int{"nx": 48, "ny": 48, "nz": 48, "steps": 1}, 1279232, 16920576},
		{"shallow", "main", map[string]int{"n": 16, "steps": 40}, 96384, 606528},
	} {
		pr, err := bench.ByName(tc.bench, tc.routine)
		if err != nil {
			t.Fatal(err)
		}
		res := placeSrc(t, pr.Source, tc.params, 16)
		nat, err := native.Run(res, 16)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := spmd.RunParallel(res, machine.SP2(), 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		declared := declaredBytes(res.Analysis.Unit, 16)
		t.Logf("%s/%s %v P=16: %d image bytes an engine, %d at declared extents (%.1fx)",
			tc.bench, tc.routine, tc.params, imageBytes(nat.Mem), declared, float64(declared)/float64(imageBytes(nat.Mem)))
		for name, mem := range map[string]*runtime.Memory{"native": nat.Mem, "simulator": sim.Mem} {
			if got := imageBytes(mem); got != tc.bytes {
				t.Errorf("%s/%s: a %s engine's image is %d bytes, want %d", tc.bench, tc.routine, name, got, tc.bytes)
			}
		}
		if declared != tc.declared {
			t.Errorf("%s/%s: %d bytes at declared extents, want %d", tc.bench, tc.routine, declared, tc.declared)
		}
	}
}

// stateHash is the FNV-64a of a final state: every array's owner values
// in declaration and row-major order, read in place, then the scalars in
// name order.
func stateHash(mem *runtime.Memory, scalars map[string]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, name := range mem.Unit.ArrayNames {
		am := mem.View(name)
		am.OwnerRuns(section.Whole(am.Arr.Lo, am.Arr.Hi), runtime.NewScratch(am.Arr.Rank()), func(o, off, n int) {
			for _, v := range am.Data[o][off-am.Base(o):][:n] {
				put(v)
			}
		})
	}
	names := make([]string, 0, len(scalars))
	for name := range scalars {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		h.Write([]byte(name))
		put(scalars[name])
	}
	return h.Sum64()
}

// TestNativeGravityPaperSize runs gravity natively at n=256 on P=64, a
// size of the paper's runs: P planes of every array would take 9.7 GB,
// more than the machines this suite runs on hold, where local boxes take
// 0.17 GB. The final state equals a P=1 simulator run's bit for bit.
func TestNativeGravityPaperSize(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a 256³ field on 64 processors and once more on one")
	}
	pr, err := bench.ByName("gravity", "main")
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int{"nx": 256, "ny": 256, "nz": 256, "steps": 1}
	ref, err := spmd.RunParallel(placeSrc(t, pr.Source, params, 1), machine.SP2(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := stateHash(ref.Mem, ref.Scalars)
	ref = nil
	res := placeSrc(t, pr.Source, params, 64)
	got, err := native.Run(res, 64)
	if err != nil {
		t.Fatal(err)
	}
	st := got.Stats
	t.Logf("gravity n=256 P=64: %d image bytes, %d at declared extents; %d messages, %d wire bytes, %d fabric bytes allocated", imageBytes(got.Mem), declaredBytes(res.Analysis.Unit, 64), st.Messages, st.WireBytes, st.AllocBytes)
	if sum := stateHash(got.Mem, got.Scalars); sum != want {
		t.Errorf("final state %016x, the P=1 simulator's %016x", sum, want)
	}
}
