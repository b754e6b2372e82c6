package native_test

import (
	"fmt"
	"math"
	goruntime "runtime"
	"sync"
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/native"
	"gcao/internal/native/prof"
	"gcao/internal/obs"
	"gcao/internal/spmd"
)

func profiledEngine(t *testing.T, benchName string, n, p int, v core.Version) (*native.Engine, *core.Result) {
	t.Helper()
	pr, err := bench.ByName(benchName, "main")
	if err != nil {
		t.Fatalf("bench: %v", err)
	}
	res := place(t, pr, n, p, v)
	eng, err := native.NewEngine(res, p)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	eng.EnableProfiling(0)
	return eng, res
}

// eventKey is an Event stripped of its timings — the part of the
// profile that is deterministic (see DESIGN.md §14: the scheduler
// decides who blocks for how long, so Start/Dur are excluded from any
// bit-identity claim).
type eventKey struct {
	Step  int32
	Site  int32
	Phase prof.Phase
}

func eventKeys(evs []prof.Event) []eventKey {
	out := make([]eventKey, len(evs))
	for i, ev := range evs {
		out[i] = eventKey{Step: ev.Step, Site: ev.Site, Phase: ev.Phase}
	}
	return out
}

// TestNativeProfileBitIdentity: event counts, order, phases, superstep
// and site attribution are identical across repeated runs of the same
// engine, for every P in the acceptance matrix. Timings are not
// compared.
func TestNativeProfileBitIdentity(t *testing.T) {
	for _, p := range []int{1, 4, 16, 25} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			eng, _ := profiledEngine(t, "gravity", 12, p, core.VersionCombine)
			first, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]eventKey, p)
			for q, evs := range first.Profile.Events {
				want[q] = eventKeys(evs)
			}
			wantSteps := len(first.Profile.Steps)
			// Sends inside barriers, value broadcasts and SUM
			// collectives record under tree-wait/sum phases, so
			// send-phase events are a subset of the message count —
			// and present whenever the run communicated at all.
			sends := countSends(first.Profile)
			if sends > first.Stats.Messages {
				t.Errorf("send events = %d > Stats.Messages = %d", sends, first.Stats.Messages)
			}
			if p > 1 && sends == 0 {
				t.Error("multi-processor run recorded no send events")
			}
			for run := 1; run <= 2; run++ {
				out, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				if got := len(out.Profile.Steps); got != wantSteps {
					t.Fatalf("run %d: %d supersteps, want %d", run, got, wantSteps)
				}
				for q, evs := range out.Profile.Events {
					got := eventKeys(evs)
					if len(got) != len(want[q]) {
						t.Fatalf("run %d proc %d: %d events, want %d", run, q, len(got), len(want[q]))
					}
					for i := range got {
						if got[i] != want[q][i] {
							t.Fatalf("run %d proc %d event %d: %+v, want %+v", run, q, i, got[i], want[q][i])
						}
					}
				}
				// Site attribution resolves against the site table.
				for _, st := range out.Profile.Steps {
					if st.Site >= int32(len(out.Profile.Sites)) {
						t.Fatalf("step %d site %d out of range", st.Step, st.Site)
					}
				}
			}
		})
	}
}

func countSends(p *prof.NativeProfile) int64 {
	var n int64
	for _, evs := range p.Events {
		for _, ev := range evs {
			if ev.Phase == prof.PhaseSend {
				n++
			}
		}
	}
	return n
}

// TestNativeProfileTilesWallTime: each processor's compute + blocked
// seconds must tile its measured wall time within 5% (the acceptance
// criterion; the fold's gap construction makes it near-exact).
func TestNativeProfileTilesWallTime(t *testing.T) {
	eng, _ := profiledEngine(t, "gravity", 24, 16, core.VersionCombine)
	out, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	np := out.Profile
	if np == nil {
		t.Fatal("profiled run returned no profile")
	}
	if np.Truncated {
		t.Fatal("profile truncated; enlarge the test ring")
	}
	for _, ps := range np.ProcTotals {
		sum := ps.ComputeSeconds + ps.BlockedSeconds
		if ps.WallSeconds <= 0 {
			t.Fatalf("proc %d: wall %g", ps.Proc, ps.WallSeconds)
		}
		if rel := math.Abs(sum-ps.WallSeconds) / ps.WallSeconds; rel > 0.05 {
			t.Errorf("proc %d: compute+blocked %.3gs vs wall %.3gs (%.1f%% off)",
				ps.Proc, sum, ps.WallSeconds, rel*100)
		}
	}
	if np.SkewRatio < 1 {
		t.Errorf("skew ratio %g < 1", np.SkewRatio)
	}
}

// TestNativeStepsJoinAttribution: the native supersteps join the
// simulator's cost-attribution record 1:1 by index with agreeing site
// ids — both backends execute the identical group sequence in program
// order. The Chrome trace's lanes and the flight record's facets put
// the two side by side on this join.
func TestNativeStepsJoinAttribution(t *testing.T) {
	eng, _ := profiledEngine(t, "gravity", 12, 16, core.VersionCombine)
	out, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	if _, err := spmd.RunPooled(new(sync.Pool), native.ProgramOf(eng), machine.SP2(), rec); err != nil {
		t.Fatal(err)
	}
	attrRun := rec.Attribution()
	if attrRun == nil {
		t.Fatal("simulator recorded no attribution")
	}
	np := out.Profile
	if len(attrRun.Steps) != len(np.Steps) {
		t.Fatalf("superstep mismatch: simulator %d, native %d", len(attrRun.Steps), len(np.Steps))
	}
	for k, s := range attrRun.Steps {
		st := np.Steps[k]
		if s.Index != k || int(st.Step) != k {
			t.Fatalf("step %d: simulator index %d, native step %d", k, s.Index, st.Step)
		}
		if got := np.SiteName(st.Site); got != s.Site {
			t.Errorf("step %d: native site %s, simulator site %s", k, got, s.Site)
		}
	}
}

// TestNativeProfileSumAttribution: a profiled gravity comb run at P=16
// leaves no event pending, and each global-sum step carries on every
// processor both legs of every member — the gather sent at its SUM
// statement, patched when the group came, and the broadcast the group
// settled — under PhaseSum, beside the step's marker.
func TestNativeProfileSumAttribution(t *testing.T) {
	const p = 16
	eng, res := profiledEngine(t, "gravity", 12, p, core.VersionCombine)
	out, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	np, tree := out.Profile, native.ProgramOf(eng).Plan.Tree
	for q, evs := range np.Events {
		for _, ev := range evs {
			if ev.Step == prof.PendingStep {
				t.Fatalf("processor %d: event %+v left pending", q, ev)
			}
		}
	}
	sums := 0
	for _, st := range np.Steps {
		if st.Site < 0 || res.Groups[st.Site].Kind != core.KindReduce {
			continue
		}
		sums++
		members := len(res.Groups[st.Site].Entries)
		for q, evs := range np.Events {
			legs := len(tree.Children[q])
			if q != 0 {
				legs++
			}
			got := 0
			for _, ev := range evs {
				if ev.Step == st.Step {
					if ev.Phase != prof.PhaseSum {
						t.Errorf("step %d processor %d: a %v event", st.Step, q, ev.Phase)
					}
					got++
				}
			}
			if want := 2*members*legs + 1; got != want {
				t.Errorf("step %d processor %d: %d events, want %d: two legs of %d members on %d tree edges and the marker", st.Step, q, got, want, members, legs)
			}
		}
	}
	if sums == 0 {
		t.Fatal("no global-sum step in the profile")
	}
}

// TestNativeProfileFoldRace runs profiled runs back to back while
// concurrent readers walk the previous run's folded profile; under
// -race this pins the happens-before edge between a processor's last
// ring write (and its end mark) and the fold's reads, and that a run's
// profile shares nothing the engine's next run writes.
func TestNativeProfileFoldRace(t *testing.T) {
	eng, _ := profiledEngine(t, "shallow", 12, 16, core.VersionCombine)
	var wg sync.WaitGroup
	for iter := 0; iter < 8; iter++ {
		out, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		np := out.Profile
		if np == nil {
			t.Fatal("run lost its profile")
		}
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var total float64
				for _, ps := range np.ProcTotals {
					total += ps.ComputeSeconds + ps.BlockedSeconds
				}
				events := 0
				for _, evs := range np.Events {
					for _, ev := range evs {
						if ev.Dur >= 0 {
							events++
						}
					}
				}
				if total < 0 || events == 0 {
					t.Errorf("profile read back total %g over %d events", total, events)
				}
			}()
		}
	}
	wg.Wait()
}

// BenchmarkNativeProfOverhead{Off,On} measure what the runtime profiler
// costs a warm native run of gravity n=48 on P=25: compare ns/op, B/op
// and allocs/op across the pair. On a 2-vCPU host profiling costs about
// 1.2× wall (six alternating pairs: 1.22× median to median, 0.96-1.29×
// pair by pair), and a profiled run allocates about 586 times and 1.7 MB
// more (EXPERIMENTS.md). gcaod profiles every native run it serves, so
// its native requests pay this.
func BenchmarkNativeProfOverheadOff(b *testing.B) { profOverhead(b, false) }
func BenchmarkNativeProfOverheadOn(b *testing.B)  { profOverhead(b, true) }

func profOverhead(b *testing.B, on bool) {
	pr, err := bench.ByName("gravity", "main")
	if err != nil {
		b.Fatal(err)
	}
	a, err := pr.Compile(48, 25)
	if err != nil {
		b.Fatal(err)
	}
	res, err := a.Place(core.Options{Version: core.VersionCombine})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := native.NewEngine(res, 25)
	if err != nil {
		b.Fatal(err)
	}
	if on {
		eng.EnableProfiling(0)
	}
	if _, err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNativeProfilingOffCostsNothing: a run without profiling returns
// no profile and records nothing, and DisableProfiling actually
// disarms a profiled engine.
func TestNativeProfilingOffCostsNothing(t *testing.T) {
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		t.Fatal(err)
	}
	res := place(t, pr, 12, 4, core.VersionCombine)
	eng, err := native.NewEngine(res, 4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Profile != nil {
		t.Fatal("unprofiled run produced a profile")
	}
	eng.EnableProfiling(0)
	if out, err = eng.Run(); err != nil {
		t.Fatal(err)
	}
	if out.Profile == nil {
		t.Fatal("profiled run produced no profile")
	}
	eng.DisableProfiling()
	if out, err = eng.Run(); err != nil {
		t.Fatal(err)
	}
	if out.Profile != nil {
		t.Fatal("disabled profiler still produced a profile")
	}
}

// TestNativeProfilerRingsStayWithEngine: disarming keeps every processor's
// ring, as large as the runs made it, so arming again allocates nothing
// and a warm profiled run allocates what folding copies out — less than
// one minimal ring a processor, let alone the 2 MiB a processor that a
// ring allocated at its full capacity up front is.
func TestNativeProfilerRingsStayWithEngine(t *testing.T) {
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		t.Fatal(err)
	}
	res := place(t, pr, 12, 4, core.VersionCombine)
	eng, err := native.NewEngine(res, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng.EnableProfiling(0)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { eng.DisableProfiling(); eng.EnableProfiling(0) }); n != 0 {
		t.Errorf("disarming and arming a profiled engine allocates %v objects", n)
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	out, err := eng.Run()
	goruntime.ReadMemStats(&after)
	if err != nil || out.Profile == nil || out.Profile.Truncated {
		t.Fatalf("warm profiled run: profile %+v, error %v", out.Profile, err)
	}
	if got, ring := after.TotalAlloc-before.TotalAlloc, uint64(4*1024*32); got >= ring {
		t.Errorf("a warm profiled run allocated %d bytes, four minimal rings are %d", got, ring)
	}
}
