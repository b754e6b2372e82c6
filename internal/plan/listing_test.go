package plan_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gcao/internal/ast"
	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/parser"
	"gcao/internal/plan"
	"gcao/internal/sem"
)

var updateListings = flag.Bool("update", false, "rewrite testdata/listing/*.golden from the current printer, lowered lines filtered out")

// place compiles src and places it under v.
func place(t testing.TB, src string, params map[string]int, procs int, v core.Version) *core.Result {
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
	res, err := a.Place(core.Options{Version: v})
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	return res
}

func emit(t *testing.T, src string, params map[string]int, procs int, v core.Version) string {
	t.Helper()
	return plan.Lower(place(t, src, params, procs, v)).Listing()
}

// paperLines drops the lines a listing prints under LoweredPrefix: what is
// left is the Fig. 6 listing, line for line what codegen.Emit printed.
func paperLines(listing string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(listing, "\n") {
		if !strings.HasPrefix(line, plan.LoweredPrefix) {
			b.WriteString(line)
		}
	}
	return b.String()
}

const listingSrc = `
routine st(n)
real a(n, n), b(n, n)
real x
!hpf$ distribute (block, block) :: a, b
do i = 1, n
do j = 1, n
a(i, j) = i + j
enddo
enddo
if (x > 0) then
do i = 2, n
do j = 1, n
b(i, j) = a(i - 1, j)
enddo
enddo
endif
x = sum(a(1, 1:n))
end
`

func TestEmitStructure(t *testing.T) {
	out := emit(t, listingSrc, map[string]int{"n": 8}, 4, core.VersionCombine)
	for _, want := range []string{
		"do i = 1, n",
		"enddo",
		"if ((x > 0)) then",
		"endif",
		"COMM exchange shift[dim0-1]",
		"COMM global-sum reduce",
		"a(1,1:8)",
		// What only the lowered form knows, under its prefix.
		plan.LoweredPrefix + "owner-computes nest of 1 statements",
		plan.LoweredPrefix + "clamp i per processor: [1:4 1:4 5:8 5:8]",
		plan.LoweredPrefix + "box kernel: the chain down to j",
		plan.LoweredPrefix + "collective: SUM 0 over a",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}
	// The exchange must be printed before the consuming loop nest.
	commIdx := strings.Index(out, "COMM exchange")
	useIdx := strings.Index(out, "b(i,j) = a((i - 1),j)")
	if commIdx < 0 || useIdx < 0 || commIdx > useIdx {
		t.Errorf("exchange not emitted before its use:\n%s", out)
	}
	// Every statement of the routine appears.
	for _, want := range []string{"a(i,j) = (i + j)", "x = sum(a(1,1:n))"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing statement %q:\n%s", want, out)
		}
	}
}

// checkListing holds a listing against its placement: one COMM line per
// group, every source statement exactly once, every loop and branch opened
// and closed once.
func checkListing(t *testing.T, name string, res *core.Result) {
	t.Helper()
	out := paperLines(plan.Lower(res).Listing())
	lines := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		lines[strings.TrimSpace(line)]++
	}
	if got := strings.Count(out, "COMM "); got != len(res.Groups) {
		t.Errorf("%s: %d COMM lines vs %d groups:\n%s", name, got, len(res.Groups), out)
	}
	g := res.Analysis.G
	want := map[string]int{}
	for _, st := range g.Stmts {
		want[fmt.Sprintf("%s = %s", ast.ExprString(st.Assign.LHS), ast.ExprString(st.Assign.RHS))]++
	}
	for text, n := range want {
		if lines[text] != n {
			t.Errorf("%s: statement %q printed %d times, the routine holds it %d times:\n%s", name, text, lines[text], n, out)
		}
	}
	branches := 0
	for _, b := range g.Blocks {
		if b.Branch != nil {
			branches++
		}
	}
	if lines["enddo"] != len(g.Loops) || lines["endif"] != branches {
		t.Errorf("%s: %d enddo for %d loops, %d endif for %d branches:\n%s", name, lines["enddo"], len(g.Loops), lines["endif"], branches, out)
	}
}

func TestEmitCountsMatchPlacement(t *testing.T) {
	versions := []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine}
	for _, v := range versions {
		checkListing(t, v.String(), place(t, listingSrc, map[string]int{"n": 8}, 4, v))
	}
	// The generator emits IF/ELSE around nests, reductions and a time loop.
	for seed := int64(0); seed < 40; seed++ {
		for _, v := range versions {
			checkListing(t, fmt.Sprintf("seed %d %v", seed, v), place(t, bench.RandomProgram(seed), map[string]int{"n": 8, "steps": 2}, 4, v))
		}
	}
}

func TestEmitElseBranch(t *testing.T) {
	src2 := `
routine br(n)
real a(n)
real x
if (x > 0) then
a(1) = 1
else
a(2) = 2
endif
end
`
	out := emit(t, src2, map[string]int{"n": 8}, 2, core.VersionCombine)
	if !strings.Contains(out, "else") {
		t.Errorf("else branch missing:\n%s", out)
	}
	if strings.Count(out, "a(1) = 1") != 1 || strings.Count(out, "a(2) = 2") != 1 {
		t.Errorf("branch statements wrong:\n%s", out)
	}
}

func TestEmitRedundantAnnotation(t *testing.T) {
	fig4 := `
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
	out := emit(t, fig4, map[string]int{"n": 16}, 4, core.VersionCombine)
	if !strings.Contains(out, "subsumes redundant") {
		t.Errorf("redundancy annotation missing:\n%s", out)
	}
}

// TestEmitNestedIfInThenArm: an IF whose THEN arm opens with a nested IF.
// The listing printer this one replaced recovered IF structure from the CFG
// a second time and took the inner join for the outer IF's: it printed the
// arm's tail after endif, the code after the IF inside the ELSE arm too,
// and the placement's one COMM twice — while both backends, walking the
// tree lowering recovers, ran the program correctly. Printed from that tree
// the listing is the program.
func TestEmitNestedIfInThenArm(t *testing.T) {
	res := place(t, `
routine t(n)
real a(0:n+1), b(0:n+1), s
!hpf$ distribute (block) :: a, b
s = 0.0
if (s > 1.0) then
if (s > 2.0) then
s = 3.0
endif
s = 4.0
else
s = 5.0
endif
s = s + 1.0
do i = 1, n
a(i) = b(i+1)
enddo
end
`, map[string]int{"n": 16}, 4, core.VersionCombine)
	checkListing(t, "nested if", res)
	if len(res.Groups) != 1 {
		t.Fatalf("%d groups placed, want the one exchange of b", len(res.Groups))
	}
	want := `! routine t on P(4), comb placement: 1 communication operations
s = 0.0
if ((s > 1.0)) then
  if ((s > 2.0)) then
    s = 3.0
  endif
  s = 4.0
else
  s = 5.0
endif
s = (s + 1.0)
COMM exchange shift[dim0+1] {b(2:17)}  ! site comb/g0@B6.top/NNC
do i = 1, n
  a(i) = b((i + 1))
enddo
`
	if got := paperLines(plan.Lower(res).Listing()); got != want {
		t.Errorf("listing:\n%s\nwant:\n%s", got, want)
	}
}

// TestListingSaysWhereSumsSettle: gravity's comb placement gives each
// plane's four SUMs one global-sum group, and the listing says that the
// statements gather where they stand and settle at the group.
func TestListingSaysWhereSumsSettle(t *testing.T) {
	pr, err := bench.ByName("gravity", "main")
	if err != nil {
		t.Fatal(err)
	}
	a, err := pr.Compile(pr.DefaultN, 16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Place(core.Options{Version: core.VersionCombine})
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Lower(res).Listing()
	for want, n := range map[string]int{
		"the total descends at global-sum g4\n":                              4,
		"the total descends at global-sum g5\n":                              4,
		"settles {s1, s2, s3, s4} here: totals descend, statements assign\n": 1,
		"settles {t1, t2, t3, t4} here: totals descend, statements assign\n": 1,
	} {
		if got := strings.Count(out, want); got != n {
			t.Errorf("listing says %q %d times, want %d:\n%s", want, got, n, out)
		}
	}
}

// TestListingGolden: the six Fig. 10(a) routines under the three
// strategies at their default sizes on 16 processors. The golden files
// were written by codegen.Emit at the last commit that had it; with the
// lowered lines filtered out the program's listing is those files byte for
// byte.
func TestListingGolden(t *testing.T) {
	for _, pr := range bench.Programs() {
		a, err := pr.Compile(pr.DefaultN, 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine} {
			res, err := a.Place(core.Options{Version: v})
			if err != nil {
				t.Fatal(err)
			}
			full := plan.Lower(res).Listing()
			if !strings.Contains(full, "\n"+plan.LoweredPrefix) {
				t.Errorf("%s/%s %v: the listing says nothing of the lowered form", pr.Bench, pr.Routine, v)
			}
			got := paperLines(full)
			path := filepath.Join("testdata", "listing", fmt.Sprintf("%s_%s_%s.golden", pr.Bench, pr.Routine, v))
			if *updateListings {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s: the listing differs from the golden file (-update rewrites it, only on purpose):\n%s", path, got)
			}
		}
	}
}
