package core_test

import (
	"testing"

	"gcao/internal/core"
)

// gravityKernel is a Fig. 1 shaped kernel: two fields exchanged in the
// same directions plus adjacent global sums.
const gravityKernel = `
routine grav(n, steps)
real g(n, n, n)
real glast(n, n), w1(n, n), w2(n, n)
real s1, s2, t1, t2
!hpf$ distribute (*, block, block) :: g
!hpf$ distribute (block, block) :: glast, w1, w2
do j = 1, n
do k = 1, n
glast(j, k) = 0
do i = 1, n
g(i, j, k) = i + j + k
enddo
enddo
enddo
do it = 1, steps
do i = 2, n - 1
do j = 2, n - 1
do k = 2, n - 1
w1(j, k) = g(i, j - 1, k) + g(i, j + 1, k)
enddo
enddo
do j = 2, n - 1
do k = 2, n - 1
w2(j, k) = glast(j - 1, k) + glast(j + 1, k)
enddo
enddo
s1 = sum(g(i, 1, 1:n))
s2 = sum(g(i, n, 1:n))
do j = 2, n - 1
do k = 2, n - 1
w1(j, k) = w1(j, k) + 0.01 * (s1 + s2)
enddo
enddo
t1 = sum(glast(1, 1:n))
t2 = sum(glast(n, 1:n))
do j = 2, n - 1
do k = 2, n - 1
glast(j, k) = g(i, j, k) + 0.01 * (t1 + t2)
enddo
enddo
do j = 2, n - 1
do k = 2, n - 1
g(i, j, k) = g(i, j, k) + 0.25 * (w1(j, k) + w2(j, k))
enddo
enddo
enddo
enddo
end
`

// TestGravityCombining checks the Fig. 1 behaviour: the 3-d field's
// plane exchanges combine with the 2-d saved plane's, and adjacent
// reductions merge into one combined message per set.
func TestGravityCombining(t *testing.T) {
	a := analyze(t, gravityKernel, map[string]int{"n": 12, "steps": 2}, 4)

	orig := place(t, a, core.VersionOrig)
	comb := place(t, a, core.VersionCombine)

	if got := orig.Counts()[core.KindShift]; got != 4 {
		t.Errorf("orig NNC = %d, want 4 (2 fields x 2 directions)", got)
	}
	if got := orig.Counts()[core.KindReduce]; got != 4 {
		t.Errorf("orig SUM = %d, want 4", got)
	}
	if got := comb.Counts()[core.KindShift]; got != 2 {
		for _, g := range comb.Groups {
			t.Logf("%v", g)
		}
		t.Errorf("comb NNC = %d, want 2 ({g,glast} per direction)", got)
	}
	if got := comb.Counts()[core.KindReduce]; got != 2 {
		t.Errorf("comb SUM = %d, want 2 (one set per field)", got)
	}
	// Each combined exchange carries both arrays.
	for _, g := range comb.Groups {
		if g.Kind != core.KindShift {
			continue
		}
		arrays := map[string]bool{}
		for _, e := range g.Entries {
			arrays[e.Array] = true
		}
		if !arrays["g"] || !arrays["glast"] {
			t.Errorf("group %v does not combine g with glast", g)
		}
	}
}

// TestReduceSinking checks §6.2: adjacent reductions sink to a common
// point and combine, but never past a use of their result.
func TestReduceSinking(t *testing.T) {
	src := `
routine red(n)
real g(n, n)
real s1, s2, s3, x
!hpf$ distribute (block, block) :: g
do i = 1, n
do j = 1, n
g(i, j) = i + j
enddo
enddo
s1 = sum(g(1, 1:n))
s2 = sum(g(2, 1:n))
x = s1 + 1
s3 = sum(g(3, 1:n))
end
`
	a := analyze(t, src, map[string]int{"n": 8}, 4)
	comb := place(t, a, core.VersionCombine)
	// s1 and s2 combine (s1 may sink past s2's statement, which does
	// not read it); s3 is separated by the use of s1.
	if got := comb.Counts()[core.KindReduce]; got != 2 {
		for _, g := range comb.Groups {
			t.Logf("%v at %v", g, g.Pos)
		}
		t.Fatalf("reduce groups = %d, want 2", got)
	}
	for _, g := range comb.Groups {
		if g.Kind == core.KindReduce && len(g.Entries) == 2 {
			return
		}
	}
	t.Error("expected one combined group of 2 reductions")
}

// TestThresholdAblation: a tiny combining threshold forbids combining.
func TestThresholdAblation(t *testing.T) {
	a := analyze(t, fig3ScalarizedSrc, map[string]int{"n": 64}, 4)
	normal, err := a.Place(core.Options{Version: core.VersionCombine})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := a.Place(core.Options{Version: core.VersionCombine, CombineThresholdBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if normal.TotalMessages() != 1 || tiny.TotalMessages() != 2 {
		t.Errorf("threshold ablation: normal=%d tiny=%d, want 1/2",
			normal.TotalMessages(), tiny.TotalMessages())
	}
}

// TestDisableCombining keeps global placement but one message per
// entry.
func TestDisableCombining(t *testing.T) {
	a := analyze(t, fig3ScalarizedSrc, map[string]int{"n": 64}, 4)
	res, err := a.Place(core.Options{Version: core.VersionCombine, DisableCombining: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMessages() != 2 {
		t.Errorf("messages = %d, want 2 without combining", res.TotalMessages())
	}
}

// TestSubsetElimAblation: §4.5 is more than pruning — discarding the
// early, small CommSets is what lets redundancy elimination remove an
// entry *completely* (the b1 story of §4.6). Without it, b1 keeps its
// early positions and survives as an extra message on Fig. 4; on
// simpler codes the counts agree.
func TestSubsetElimAblation(t *testing.T) {
	run := func(src string, n int) (on, off int) {
		a := analyze(t, src, map[string]int{"n": n}, 4)
		resOn, err := a.Place(core.Options{Version: core.VersionCombine})
		if err != nil {
			t.Fatal(err)
		}
		resOff, err := a.Place(core.Options{Version: core.VersionCombine, DisableSubsetElim: true})
		if err != nil {
			t.Fatal(err)
		}
		return resOn.TotalMessages(), resOff.TotalMessages()
	}
	if on, off := run(fig3ScalarizedSrc, 64); on != 1 || off != 1 {
		t.Errorf("fig3: on=%d off=%d, want 1/1", on, off)
	}
	if on, off := run(fig4Src, 16); on != 1 || off <= on {
		t.Errorf("fig4: on=%d off=%d; disabling subset elimination should cost extra messages", on, off)
	}
}

// TestGreedyVsOptimal: on the running example and the Fig. 3 codes the
// greedy heuristic must match the exhaustive optimum.
func TestGreedyVsOptimal(t *testing.T) {
	for _, tc := range []struct {
		name   string
		src    string
		params map[string]int
	}{
		{"fig3", fig3ScalarizedSrc, map[string]int{"n": 64}},
		{"fig3fused", fig3FusedSrc, map[string]int{"n": 64}},
		{"fig4", fig4Src, map[string]int{"n": 16}},
		{"optimal-kernel", optimalKernelSrc, map[string]int{"n": 16, "steps": 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := analyze(t, tc.src, tc.params, 4)
			greedy, err := a.Place(core.Options{Version: core.VersionCombine})
			if err != nil {
				t.Fatal(err)
			}
			optimal, err := a.PlaceOptimal(core.Options{Version: core.VersionCombine}, 200000)
			if err != nil {
				t.Fatal(err)
			}
			gd, err := a.DynamicMessages(greedy)
			if err != nil {
				t.Fatal(err)
			}
			od, err := a.DynamicMessages(optimal)
			if err != nil {
				t.Fatal(err)
			}
			if gd > od {
				t.Errorf("greedy dynamic messages %.0f exceed optimal %.0f", gd, od)
			}
			if od > gd {
				t.Errorf("exhaustive search found %.0f worse than greedy %.0f — search bug", od, gd)
			}
		})
	}
}

// optimalKernelSrc is BenchmarkOptimalAblation's kernel: two fields with
// two-direction stencils updated across a timestep loop, whose exhaustive
// search must not combine the two fields' shifts, which are not
// compatible.
const optimalKernelSrc = `
routine opt(n, steps)
real a(n, n), b(n, n), ra(n, n), rb(n, n)
!hpf$ distribute (block, block) :: a, b, ra, rb
do i = 1, n
do j = 1, n
a(i, j) = i
b(i, j) = j
ra(i, j) = 0
rb(i, j) = 0
enddo
enddo
do it = 1, steps
do i = 2, n - 1
do j = 2, n - 1
ra(i, j) = a(i - 1, j) + a(i + 1, j)
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
rb(i, j) = b(i - 1, j) + b(i + 1, j)
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
a(i, j) = a(i, j) + 0.1 * ra(i, j)
b(i, j) = b(i, j) + 0.1 * rb(i, j)
enddo
enddo
enddo
end
`

// TestCandidatesOrdered: every entry's candidate list runs from
// Earliest to Latest along the dominator chain.
func TestCandidatesOrdered(t *testing.T) {
	a := analyze(t, fig4Src, map[string]int{"n": 16}, 4)
	for _, e := range a.CommEntries() {
		if len(e.Candidates) == 0 {
			t.Fatalf("%v has no candidates", e)
		}
		if e.Candidates[0] != e.Earliest {
			t.Errorf("%v: first candidate %v != earliest %v", e, e.Candidates[0], e.Earliest)
		}
		if e.Candidates[len(e.Candidates)-1] != e.Latest {
			t.Errorf("%v: last candidate %v != latest %v", e, e.Candidates[len(e.Candidates)-1], e.Latest)
		}
	}
}

// TestBcastClassification: a scalar read of a distributed element is a
// broadcast; wrap-around copies are general patterns, not NNC.
func TestBcastClassification(t *testing.T) {
	src := `
routine b(n)
real a(n)
real x
!hpf$ distribute (block) :: a
do i = 1, n
a(i) = i
enddo
x = a(1)
a(1) = a(n)
end
`
	a := analyze(t, src, map[string]int{"n": 16}, 4)
	var kinds []core.CommKind
	for _, e := range a.CommEntries() {
		kinds = append(kinds, e.Kind)
	}
	hasBcast, hasGeneral := false, false
	for _, k := range kinds {
		if k == core.KindBcast {
			hasBcast = true
		}
		if k == core.KindGeneral {
			hasGeneral = true
		}
	}
	if !hasBcast {
		t.Errorf("scalar = a(1) should classify as broadcast: %v", kinds)
	}
	if !hasGeneral {
		t.Errorf("a(1) = a(n) wrap copy should classify as general: %v", kinds)
	}
}

// TestAlignedAccessIsLocal: perfectly aligned reads need no entries.
func TestAlignedAccessIsLocal(t *testing.T) {
	src := `
routine loc(n)
real a(n, n), b(n, n)
!hpf$ distribute (block, block) :: a, b
do i = 1, n
do j = 1, n
b(i, j) = a(i, j) * 2
enddo
enddo
end
`
	a := analyze(t, src, map[string]int{"n": 16}, 4)
	if got := len(a.CommEntries()); got != 0 {
		t.Errorf("aligned access produced %d comm entries", got)
	}
}

// TestReplicatedArrayIsLocal: reads of replicated data never
// communicate.
func TestReplicatedArrayIsLocal(t *testing.T) {
	src := `
routine rep(n)
real a(n, n), r(n)
!hpf$ distribute (block, block) :: a
do i = 2, n
do j = 1, n
a(i, j) = r(i - 1) + r(i)
enddo
enddo
end
`
	a := analyze(t, src, map[string]int{"n": 16}, 4)
	if got := len(a.CommEntries()); got != 0 {
		t.Errorf("replicated reads produced %d comm entries", got)
	}
}

// TestDiagonalCoalescing: a pure diagonal access rides augmented axis
// exchanges (synthesized when absent), reproducing pHPF's message
// coalescing (§2.2).
func TestDiagonalCoalescing(t *testing.T) {
	src := `
routine diag(n)
real a(n, n), b(n, n)
!hpf$ distribute (block, block) :: a, b
do i = 1, n
do j = 1, n
a(i, j) = i * j
enddo
enddo
do i = 2, n
do j = 2, n
b(i, j) = a(i - 1, j - 1)
enddo
enddo
end
`
	a := analyze(t, src, map[string]int{"n": 16}, 4)
	es := a.CommEntries()
	if len(es) != 2 {
		for _, e := range es {
			t.Logf("%v map=%v", e, e.Map)
		}
		t.Fatalf("diagonal should coalesce into 2 axis exchanges, got %d entries", len(es))
	}
	dims := map[int]bool{}
	for _, e := range es {
		if e.Kind != core.KindShift {
			t.Errorf("%v: want shift", e)
		}
		dims[e.Map.GridDim] = true
	}
	if !dims[0] || !dims[1] {
		t.Error("expected one synthesized exchange per grid dimension")
	}
}

// TestCyclicShiftIsGeneral: a constant-offset access on a CYCLIC
// dimension touches every processor, so it must classify as a general
// pattern, not NNC.
func TestCyclicShiftIsGeneral(t *testing.T) {
	src := `
routine cyc(n)
real a(n), b(n)
!hpf$ distribute (cyclic) :: a, b
do i = 1, n
a(i) = i
enddo
do i = 2, n
b(i) = a(i - 1)
enddo
end
`
	a := analyze(t, src, map[string]int{"n": 16}, 4)
	es := a.CommEntries()
	if len(es) != 1 {
		t.Fatalf("entries = %d", len(es))
	}
	if es[0].Kind != core.KindGeneral {
		t.Errorf("cyclic offset access classified as %v, want GEN", es[0].Kind)
	}
}
