package native_test

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/native"
	"gcao/internal/plan"
)

// warmGravity returns a gravity engine at P = 16 that has run once.
func warmGravity(t *testing.T, n int) (*native.Engine, *core.Result) {
	t.Helper()
	pr, err := bench.ByName("gravity", "main")
	if err != nil {
		t.Fatal(err)
	}
	res := place(t, pr, n, 16, core.VersionCombine)
	eng, err := native.NewEngine(res, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng, res
}

// waitRunners waits up to wait for the runner count to fall to n.
func waitRunners(n int, wait time.Duration) int {
	deadline := time.Now().Add(wait)
	for native.Runners() > n && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return native.Runners()
}

// settledGoroutines is the leak checks' wait: the goroutine count once it
// has fallen to before, or after wait.
func settledGoroutines(before int, wait time.Duration) int {
	deadline := time.Now().Add(wait)
	for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
		goruntime.Gosched()
	}
	return goruntime.NumGoroutine()
}

// TestWarmRunStartsNoGoroutine: a warm P = 16 run hands its processors to
// the runners the last run parked, packs into the pairs' rings and replays
// or translates its schedules, so what it allocates is its RunResult — on
// gravity at n = 16 and on the configurations of BenchmarkNativeAlloc
// (gravity n = 48) and BenchmarkNativeComm (shallow n = 16, 40 steps).
// AllocsPerRun's first run, not measured, warms the engine.
func TestWarmRunStartsNoGoroutine(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on channel operations")
	}
	for _, tc := range []struct {
		bench  string
		params map[string]int
	}{
		{"gravity", map[string]int{"nx": 16, "ny": 16, "nz": 16, "steps": 1}},
		{"gravity", map[string]int{"nx": 48, "ny": 48, "nz": 48, "steps": 1}},
		{"shallow", map[string]int{"n": 16, "steps": 40}},
	} {
		pr, err := bench.ByName(tc.bench, "main")
		if err != nil {
			t.Fatal(err)
		}
		eng, err := native.NewEngine(placeSrc(t, pr.Source, tc.params, 16), 16)
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(10, func() {
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if n > 1 {
			t.Errorf("a warm P = 16 %s %v run allocates %v objects, want 1 (the RunResult)", tc.bench, tc.params, n)
		}
	}
}

// TestRunnersAfterFailedRun: a run that fails — a SUM split by an
// out-of-range store, a stale read, a panic in one processor — leaves at
// most P − 1 runners more than it found, and the next run of the engine
// (for the stale read, of an engine with the communication back) equals a
// fresh engine's.
func TestRunnersAfterFailedRun(t *testing.T) {
	const p = 16
	const src = `
routine r(n)
real a(n), b(n)
real s, t, u
!hpf$ distribute (block) :: a, b
do i = 1, n
a(i) = i
b(i) = 2 * i
enddo
s = sum(a(1:n))
b(3) = 7
t = sum(b(1:n))
u = s + t
end
`
	// lastStore is the program's last assignment to an array element.
	lastStore := func(prog *plan.Program) *plan.Stmt {
		var store *plan.Stmt
		for _, n := range prog.Body {
			if st, ok := n.(*plan.Stmt); ok && st.LHS != nil {
				store = st
			}
		}
		return store
	}
	for _, tc := range []struct {
		name string
		want string
		// breakRun alters the engine's program so the next run fails and
		// returns what puts it back.
		breakRun func(prog *plan.Program) (mend func())
	}{
		{"split-sum", "outside the declared 1:20", func(prog *plan.Program) func() {
			sub := &lastStore(prog).LHS.Subs[0].Const
			*sub += 20
			return func() { *sub -= 20 }
		}},
		{"panic", "native: processor 1 at 11:1: panic: runtime error: invalid memory address", func(prog *plan.Program) func() {
			st := lastStore(prog) // b(3) = 7, which processor 1 owns
			rhs := st.RHS
			st.RHS = nil // evaluating it dereferences nil
			return func() { st.RHS = rhs }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := placeSrc(t, src, map[string]int{"n": 20}, p)
			eng, err := native.NewEngine(res, p)
			if err != nil {
				t.Fatal(err)
			}
			mend := tc.breakRun(native.ProgramOf(eng))
			before := native.Runners()
			if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run returned %v, want an error with %q", err, tc.want)
			}
			if after := native.Runners(); after > before+p-1 {
				t.Errorf("%d runners before the failed run, %d after", before, after)
			}
			mend()
			requireFreshAfter(t, eng, res, p)
		})
	}
	t.Run("stale-read", func(t *testing.T) {
		const src = "routine r(n)\nreal a(n), b(n)\n!hpf$ distribute (block) :: a, b\n" +
			"do i = 1, n\na(i) = i\nenddo\ndo i = 2, n\nb(i) = a(i - 1)\nenddo\nend\n"
		res := placeSrc(t, src, map[string]int{"n": 20}, p)
		groups := res.Groups
		res.Groups = nil
		broken, err := native.NewEngine(res, p)
		if err != nil {
			t.Fatal(err)
		}
		before := native.Runners()
		if _, err := broken.Run(); err == nil || !strings.Contains(err.Error(), "stale") {
			t.Fatalf("run without communication returned %v, want a stale read", err)
		}
		if after := native.Runners(); after > before+p-1 {
			t.Errorf("%d runners before the failed run, %d after", before, after)
		}
		res.Groups = groups
		eng, err := native.NewEngine(res, p)
		if err != nil {
			t.Fatal(err)
		}
		requireFreshAfter(t, eng, res, p)
	})
}

// requireFreshAfter runs eng and a fresh engine of res and compares them.
func requireFreshAfter(t *testing.T, eng *native.Engine, res *core.Result, p int) {
	t.Helper()
	out, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := native.Run(res, p)
	if err != nil {
		t.Fatal(err)
	}
	requireSameImage(t, "the run after the failed one", out.Mem, fresh.Mem, out.Scalars, fresh.Scalars)
	if g, w := out.Stats, fresh.Stats; g.Messages != w.Messages || g.WireBytes != w.WireBytes || g.Collectives != w.Collectives {
		t.Errorf("stats %+v, a fresh engine's %+v", g, w)
	}
}

// TestRunnersBounded: two P = 16 engines running at once under a bound of
// four runners never see more than four, and past the bound their
// processors still run, on goroutines of their own; under the real bound
// the count stays within MaxProcs.
func TestRunnersBounded(t *testing.T) {
	for _, limit := range []int{4, native.MaxProcs()} {
		t.Run(fmt.Sprint(limit), func(t *testing.T) {
			defer native.SetRunnerCap(limit)()
			eng1, res := warmGravity(t, 12)
			eng2, _ := warmGravity(t, 12)
			want, err := native.Run(res, 16)
			if err != nil {
				t.Fatal(err)
			}
			if n := waitRunners(limit, 5*time.Second); n > limit {
				t.Fatalf("%d runners %v after a bound of %d was set", n, 5*time.Second, limit)
			}
			stop, most := make(chan struct{}), make(chan int)
			go func() {
				seen := 0
				for {
					seen = max(seen, native.Runners())
					select {
					case <-stop:
						most <- seen
						return
					default:
						goruntime.Gosched()
					}
				}
			}()
			var wg sync.WaitGroup
			for _, eng := range []*native.Engine{eng1, eng2} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range 5 {
						out, err := eng.Run()
						if err != nil {
							t.Error(err)
							return
						}
						requireSameImage(t, "a concurrent run", out.Mem, want.Mem, out.Scalars, want.Scalars)
					}
				}()
			}
			wg.Wait()
			close(stop)
			if seen := <-most; seen > limit {
				t.Errorf("%d runners at once, bound %d", seen, limit)
			}
		})
	}
}

// TestRunnersExitWhenIdle: the runners a run parked exit once idle for
// RunnerIdle, so the goroutine count returns to what it was before the
// runs; and a goroutine that is not a runner and never ends is still seen
// by that count, as the package's leak checks expect.
func TestRunnersExitWhenIdle(t *testing.T) {
	if n := waitRunners(0, 5*time.Second); n != 0 {
		t.Fatalf("%d runners left from earlier tests", n)
	}
	eng, _ := warmGravity(t, 12)
	if n := waitRunners(0, 5*time.Second); n != 0 {
		t.Fatalf("%d runners %v after the first run", n, 5*time.Second)
	}
	before := goruntime.NumGoroutine()
	for range 3 {
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if n := native.Runners(); n != 15 {
		t.Errorf("%d runners after P = 16 runs one after the other, want 15", n)
	}
	start := time.Now()
	if after := settledGoroutines(before, 5*time.Second); after > before {
		t.Errorf("%d goroutines before the runs, %d after", before, after)
	}
	if n := native.Runners(); n != 0 {
		t.Errorf("%d runners after %v idle", n, time.Since(start))
	}

	leak := make(chan struct{})
	defer close(leak)
	go func() { <-leak }()
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if after := settledGoroutines(before, native.RunnerIdle+time.Second); after != before+1 {
		t.Errorf("with one goroutine leaked, %d goroutines before the run, %d after; want %d", before, after, before+1)
	}
}
