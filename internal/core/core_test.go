package core_test

import (
	"fmt"
	"testing"

	"gcao/internal/core"
	"gcao/internal/obs"
	"gcao/internal/parser"
	"gcao/internal/sem"
)

// analyze compiles a mini-HPF routine through the full analysis
// pipeline.
func analyze(t *testing.T, src string, params map[string]int, procs int) *core.Analysis {
	t.Helper()
	r, err := parser.ParseRoutine(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u, err := sem.Analyze(r, params, sem.Options{Procs: procs})
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	a, err := core.NewAnalysis(u)
	if err != nil {
		t.Fatalf("analysis: %v", err)
	}
	return a
}

func place(t *testing.T, a *core.Analysis, v core.Version) *core.Result {
	t.Helper()
	return placeRec(t, a, v, nil)
}

// placeRec is place recording into rec.
func placeRec(t *testing.T, a *core.Analysis, v core.Version, rec *obs.Recorder) *core.Result {
	t.Helper()
	res, err := a.Place(core.Options{Version: v, Obs: rec})
	if err != nil {
		t.Fatalf("place %v: %v", v, err)
	}
	return res
}

// fig4Src is the running example of Fig. 4: a 2-d BLOCK-distributed
// code with strided array statements, an IF/ELSE, and two inner loops
// reading shifted sections.
const fig4Src = `
routine fig4(n)
real a(n,n), b(n,n), c(n,n), d(n,n)
real cond
!hpf$ processors p(4)
!hpf$ distribute (block,*) :: a, b, c, d
b(1:n, 1:n:2) = 1
b(1:n, 2:n:2) = 2
if (cond > 0) then
a(1:n, 1:n) = 3
else
a(1:n, 1:n) = d(1:n, 1:n)
endif
do i = 2, n
do j = 1, n, 2
c(i, j) = a(i-1, j) + b(i-1, j)
enddo
do j = 1, n
c(i, j) = a(i-1, j) + b(i-1, j)
enddo
enddo
end
`

// TestRunningExampleFig4 checks the analysis and optimization steps on
// the paper's running example: four NNC entries (a1, b1, a2, b2), the
// strided b sections distinguished by the dependence tester, global
// redundancy elimination removing a1 and b1 (which earliest placement
// cannot do for b1, §4.6), and greedy combining yielding one message.
func TestRunningExampleFig4(t *testing.T) {
	a := analyze(t, fig4Src, map[string]int{"n": 16}, 4)

	entries := a.CommEntries()
	if len(entries) != 4 {
		for _, e := range entries {
			t.Logf("entry: %v earliest=%v latest=%v", e, e.Earliest, e.Latest)
		}
		t.Fatalf("want 4 comm entries (a1,b1,a2,b2), got %d", len(entries))
	}
	for _, e := range entries {
		if e.Kind != core.KindShift {
			t.Errorf("%v: want NNC, got %v", e, e.Kind)
		}
		if e.CommLevel != 0 {
			t.Errorf("%v: want CommLevel 0 (hoistable above the i loop), got %d", e, e.CommLevel)
		}
	}

	// The combined version must communicate once: {a2, b2} combined,
	// with a1, b1 eliminated as redundant.
	comb := place(t, a, core.VersionCombine)
	if got := comb.TotalMessages(); got != 1 {
		for _, g := range comb.Groups {
			t.Logf("group: %v", g)
		}
		t.Fatalf("comb: want 1 combined message, got %d", got)
	}
	if comb.Eliminated() != 2 {
		t.Errorf("comb: want 2 entries eliminated as redundant (a1, b1), got %d", comb.Eliminated())
	}
	g := comb.Groups[0]
	if len(g.Entries) != 2 {
		t.Errorf("comb: want the a and b messages combined (2 members), got %d", len(g.Entries))
	}

	// The baseline vectorizes per reference with per-statement
	// coalescing only: both inner statements fetch a and b separately
	// = 4 messages.
	orig := place(t, a, core.VersionOrig)
	if got := orig.TotalMessages(); got != 4 {
		for _, g := range orig.Groups {
			t.Logf("group: %v members=%d", g, len(g.Entries))
		}
		t.Fatalf("orig: want 4 messages, got %d", got)
	}

	// Earliest placement cannot eliminate b1 (Earliest(b1) = stmt 1 ≠
	// Earliest(b2) = stmt 2), so nored keeps 3 messages: a (a1
	// subsumed by a2 at the same φ point), b1, b2.
	nored := place(t, a, core.VersionRedund)
	if got := nored.TotalMessages(); got != 3 {
		for _, g := range nored.Groups {
			t.Logf("group: %v at %v", g, g.Pos)
		}
		t.Fatalf("nored: want 3 messages, got %d", got)
	}
}

// TestFig4EarliestPoints checks the specific Earliest values the paper
// derives: Earliest(a1) = Earliest(a2) = the endif join (statement 7),
// and Earliest(b1) after statement 1 vs Earliest(b2) after statement 2.
func TestFig4EarliestPoints(t *testing.T) {
	a := analyze(t, fig4Src, map[string]int{"n": 16}, 4)
	var aPos, bPos []core.Position
	for _, e := range a.CommEntries() {
		switch e.Array {
		case "a":
			aPos = append(aPos, e.Earliest)
		case "b":
			bPos = append(bPos, e.Earliest)
		}
	}
	if len(aPos) != 2 || len(bPos) != 2 {
		t.Fatalf("want 2 a-entries and 2 b-entries, got %d/%d", len(aPos), len(bPos))
	}
	if aPos[0] != aPos[1] {
		t.Errorf("Earliest(a1) = %v should equal Earliest(a2) = %v (the endif join)", aPos[0], aPos[1])
	}
	if bPos[0] == bPos[1] {
		t.Errorf("Earliest(b1) and Earliest(b2) must differ (statements 1 vs 2), both %v", bPos[0])
	}
}

// Fig. 3: semantically equivalent codes. The scalarized form (separate
// loops per array statement) defeats earliest-placement combining but
// not the global algorithm.
const fig3ScalarizedSrc = `
routine fig3(n)
real a(n), b(n), c(n)
!hpf$ processors p(4)
!hpf$ distribute (block) :: a, b, c
a(1:n) = 3
b(1:n) = 4
c(2:n) = a(1:n-1) + b(1:n-1)
end
`

const fig3FusedSrc = `
routine fig3f(n)
real a(n), b(n), c(n)
!hpf$ processors p(4)
!hpf$ distribute (block) :: a, b, c
do i = 1, n
a(i) = 3
b(i) = 4
enddo
do i = 2, n
c(i) = a(i-1) + b(i-1)
enddo
end
`

// TestSyntaxSensitivity reproduces Fig. 3: under earliest placement
// the two messages combine only in the fused form; the global
// algorithm combines them in both forms.
func TestSyntaxSensitivity(t *testing.T) {
	for _, tc := range []struct {
		name          string
		src           string
		earliestCount int // messages under earliest placement (+ same-point combining)
	}{
		{"scalarized", fig3ScalarizedSrc, 2},
		{"fused", fig3FusedSrc, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := analyze(t, tc.src, map[string]int{"n": 64}, 4)
			if got := len(a.CommEntries()); got != 2 {
				for _, e := range a.CommEntries() {
					t.Logf("entry %v earliest=%v latest=%v", e, e.Earliest, e.Latest)
				}
				t.Fatalf("want 2 comm entries, got %d", got)
			}

			comb := place(t, a, core.VersionCombine)
			if got := comb.TotalMessages(); got != 1 {
				for _, g := range comb.Groups {
					t.Logf("group %v", g)
				}
				t.Fatalf("comb: want 1 combined message regardless of syntax, got %d", got)
			}

			// Earliest placement + combining pass: messages combine
			// only when their earliest points coincide.
			nored := place(t, a, core.VersionRedund)
			positions := map[core.Position]int{}
			for _, g := range nored.Groups {
				positions[g.Pos]++
			}
			if got := len(positions); got != tc.earliestCount {
				for _, g := range nored.Groups {
					t.Logf("group %v at %v", g, g.Pos)
				}
				t.Fatalf("earliest placement: want %d distinct points, got %d", tc.earliestCount, got)
			}
		})
	}
}

// TestHugeLoopBound: a loop bound beyond int64 used to parse through
// float64 and wrap to MinInt64 — the loop compiled as zero-trip. It is a
// positioned error now, and the largest bound that fits is exact.
func TestHugeLoopBound(t *testing.T) {
	const src = `
routine f()
real a(8)
do i = 2, %s
a(1) = i
enddo
end
`
	if _, err := parser.ParseRoutine(fmt.Sprintf(src, "12345678901234567890")); err == nil || err.Error() != `4:11: bad number "12345678901234567890"` {
		t.Fatalf("a 20-digit loop bound: %v, want a positioned bad number", err)
	}
	r, err := parser.ParseRoutine(fmt.Sprintf(src, "9007199254740993"))
	if err != nil {
		t.Fatal(err)
	}
	u, err := sem.Analyze(r, nil, sem.Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalysis(u)
	if err != nil {
		t.Fatal(err)
	}
	if trip, ok := a.LoopTrip(a.G.Loops[0]); !ok || trip != 9007199254740992 {
		t.Errorf("LoopTrip = %d, %t, want 2..9007199254740993 exactly", trip, ok)
	}
}
