package ssa

import (
	"math/rand"
	"strings"
	"testing"

	"gcao/internal/cfg"
	"gcao/internal/dom"
	"gcao/internal/parser"
)

func buildSSA(t *testing.T, src string, arrays ...string) (*Info, *cfg.Graph) {
	t.Helper()
	r, err := parser.ParseRoutine(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g := cfg.Build(r.Body)
	tr := dom.New(g)
	set := map[string]bool{}
	for _, a := range arrays {
		set[a] = true
	}
	info := Build(g, tr, func(n string) bool { return set[n] })
	if err := info.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return info, g
}

func TestStraightLineChain(t *testing.T) {
	info, _ := buildSSA(t, `
routine f(n)
real a(n)
a(1) = 0
a(2) = a(1)
a(3) = a(2)
end
`, "a")
	if len(info.Defs) != 3 {
		t.Fatalf("defs = %d", len(info.Defs))
	}
	// Preserving chain: def2.Input = def1, def1.Input = def0,
	// def0.Input = ENTRY.
	if info.Defs[0].Input != info.Entry("a") {
		t.Error("first def's input should be the ENTRY pseudo-def")
	}
	if info.Defs[1].Input != info.Defs[0] || info.Defs[2].Input != info.Defs[1] {
		t.Error("preserving def chain broken")
	}
	// Uses see the def just above them.
	if len(info.Uses) != 2 {
		t.Fatalf("uses = %d", len(info.Uses))
	}
	if info.Uses[0].Reaching != info.Defs[0] || info.Uses[1].Reaching != info.Defs[1] {
		t.Error("reaching defs wrong in straight line")
	}
}

func TestJoinPhi(t *testing.T) {
	info, _ := buildSSA(t, `
routine f(n)
real a(n), d(n)
real c
if (c > 0) then
a(1) = 3
else
a(1) = d(1)
endif
a(2) = a(1)
end
`, "a", "d")
	var joinPhi *PhiDef
	for _, p := range info.Phis {
		if p.Var == "a" && p.Kind == PhiJoin {
			joinPhi = p
		}
	}
	if joinPhi == nil {
		t.Fatal("missing join φ for a")
	}
	// The use after the if reaches through the φ.
	var use *Use
	for _, u := range info.Uses {
		if u.Var == "a" {
			use = u
		}
	}
	if use.Reaching != joinPhi {
		t.Errorf("use reaches %v, want the join φ", use.Reaching)
	}
	// φ args are the two branch defs.
	args := map[Def]bool{joinPhi.Args[0]: true, joinPhi.Args[1]: true}
	count := 0
	for _, d := range info.Defs {
		if d.Var == "a" && args[d] {
			count++
		}
	}
	if count != 2 {
		t.Errorf("join φ args should be the two branch defs, got %v", joinPhi.Args)
	}
}

func TestLoopPhis(t *testing.T) {
	info, g := buildSSA(t, `
routine f(n)
real a(n)
a(1) = 0
do i = 2, n
a(i) = a(i - 1)
enddo
a(2) = a(1)
end
`, "a")
	var entryPhi, exitPhi *PhiDef
	for _, p := range info.Phis {
		switch p.Kind {
		case PhiEntry:
			entryPhi = p
		case PhiExit:
			exitPhi = p
		}
	}
	if entryPhi == nil || exitPhi == nil {
		t.Fatalf("missing φEntry/φExit: %v", info.Phis)
	}
	l := g.Loops[0]
	if entryPhi.Blk != l.Header || exitPhi.Blk != l.PostExit {
		t.Error("φEntry/φExit in wrong blocks")
	}
	// The in-loop use reaches the φEntry.
	var inLoop, after *Use
	for _, u := range info.Uses {
		if u.Stmt.NL() == 1 {
			inLoop = u
		} else if u.Stmt.Block == l.PostExit {
			after = u
		}
	}
	if inLoop == nil || inLoop.Reaching != entryPhi {
		t.Errorf("in-loop use reaches %v, want φEntry", inLoop.Reaching)
	}
	if after == nil || after.Reaching != exitPhi {
		t.Errorf("post-loop use reaches %v, want φExit", after.Reaching)
	}
	// φEntry args: the pre-loop def and the in-loop def (through the
	// backedge).
	hasPre := false
	hasBack := false
	for _, a := range entryPhi.Args {
		if rd, ok := a.(*RegularDef); ok {
			if rd.Stmt.NL() == 0 {
				hasPre = true
			} else {
				hasBack = true
			}
		}
	}
	if !hasPre || !hasBack {
		t.Errorf("φEntry args = %v", entryPhi.Args)
	}
	// φExit args include the zero-trip path (the pre-loop def).
	zeroTrip := false
	for _, a := range exitPhi.Args {
		if rd, ok := a.(*RegularDef); ok && rd.Stmt.NL() == 0 {
			zeroTrip = true
		}
	}
	if !zeroTrip {
		t.Errorf("φExit should see the zero-trip value: %v", exitPhi.Args)
	}
}

func TestUsesInReduction(t *testing.T) {
	info, _ := buildSSA(t, `
routine f(n)
real g(n, n)
real x
x = sum(g(1, 1:n)) + g(2, 2)
end
`, "g")
	if len(info.Uses) != 2 {
		t.Fatalf("uses = %d", len(info.Uses))
	}
	inSum, plain := 0, 0
	for _, u := range info.Uses {
		if u.InReduction {
			inSum++
		} else {
			plain++
		}
	}
	if inSum != 1 || plain != 1 {
		t.Errorf("inSum=%d plain=%d", inSum, plain)
	}
}

func TestCNLAndCommonLoops(t *testing.T) {
	info, _ := buildSSA(t, `
routine f(n)
real a(n)
do i = 1, n
do j = 1, n
a(j) = a(j)
enddo
enddo
end
`, "a")
	u := info.Uses[0]
	d := info.DefOfStmt[u.Stmt.ID]
	if d == nil {
		t.Fatal("missing def")
	}
	if CNL(d, u) != 2 {
		t.Errorf("CNL same statement = %d", CNL(d, u))
	}
	if got := len(commonLoops(u.Reaching, u)); got > 2 {
		t.Errorf("common loops with reaching def = %d", got)
	}
}

// commonLoops is the reference for CNL: the loops containing both a
// definition and a use, outermost first.
func commonLoops(d Def, u *Use) []*cfg.Loop {
	dl := d.Loops()
	ul := u.Stmt.Loops
	n := min(len(dl), len(ul))
	var out []*cfg.Loop
	for i := 0; i < n; i++ {
		if dl[i] != ul[i] {
			break
		}
		out = append(out, dl[i])
	}
	return out
}

// Property: on random structured programs, SSA invariants hold, every
// use's reaching def dominates it, and CNL of every (def, use) pair is
// the number of loops the two have in common.
func TestRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		src := randomArrayProgram(rng)
		r, err := parser.ParseRoutine(src)
		if err != nil {
			t.Fatalf("parse %s: %v", src, err)
		}
		g := cfg.Build(r.Body)
		tr := dom.New(g)
		info := Build(g, tr, func(n string) bool { return n == "a" || n == "b" })
		if err := info.Validate(); err != nil {
			t.Fatalf("trial %d:\n%s\n%v", trial, src, err)
		}
		var defs []Def
		for _, e := range info.Entries {
			defs = append(defs, e)
		}
		for _, p := range info.Phis {
			defs = append(defs, p)
		}
		for _, d := range info.Defs {
			defs = append(defs, d)
		}
		for _, d := range defs {
			for _, u := range info.Uses {
				if got, want := CNL(d, u), len(commonLoops(d, u)); got != want {
					t.Fatalf("trial %d: CNL(%s, %s) = %d, want %d", trial, d, u, got, want)
				}
			}
		}
	}
}

// defsByID lists every def of info in DefID order, failing when the IDs
// are not exactly 0 … NumDefs−1.
func defsByID(t *testing.T, info *Info) []string {
	t.Helper()
	out := make([]string, info.NumDefs)
	add := func(d Def) {
		if id := d.DefID(); id < 0 || id >= len(out) || out[id] != "" {
			t.Fatalf("%s: DefID %d out of range or repeated", d, id)
		}
		out[d.DefID()] = d.String()
	}
	for _, e := range info.Entries {
		add(e)
	}
	for _, p := range info.Phis {
		add(p)
	}
	for _, d := range info.Defs {
		add(d)
	}
	for id, s := range out {
		if s == "" {
			t.Fatalf("no def has DefID %d", id)
		}
	}
	return out
}

// TestNumberingIsDeterministic: building SSA twice over one graph numbers
// every def and φ the same way — DefID, version and block — and the
// per-statement tables index exactly the defs and uses of each
// statement.
func TestNumberingIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		src := randomArrayProgram(rng)
		r, err := parser.ParseRoutine(src)
		if err != nil {
			t.Fatal(err)
		}
		g := cfg.Build(r.Body)
		tr := dom.New(g)
		isArray := func(n string) bool { return n == "a" || n == "b" }
		first, second := Build(g, tr, isArray), Build(g, tr, isArray)
		a, b := defsByID(t, first), defsByID(t, second)
		if strings.Join(a, " ") != strings.Join(b, " ") {
			t.Fatalf("trial %d: numbering differs between builds:\n%v\n%v", trial, a, b)
		}
		for _, st := range g.Stmts {
			var want []*Use
			for _, u := range first.Uses {
				if u.Stmt == st {
					want = append(want, u)
				}
			}
			got := first.UsesOfStmt[st.ID]
			if len(got) != len(want) {
				t.Fatalf("trial %d: %s has %d uses, UsesOfStmt %d", trial, st, len(want), len(got))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: UsesOfStmt[%d][%d] = %s, want %s", trial, st.ID, i, got[i], want[i])
				}
			}
			if d := first.DefOfStmt[st.ID]; d != nil && d.Stmt != st {
				t.Fatalf("trial %d: DefOfStmt[%d] = %s", trial, st.ID, d)
			}
		}
	}
}

// TestValidateChecksDefIDs: a DefID out of range or held by two defs
// fails validation.
func TestValidateChecksDefIDs(t *testing.T) {
	src := `
routine f(n)
real a(n)
a(1) = 0
do i = 2, n
a(i) = a(i - 1)
enddo
end
`
	for _, tc := range []struct {
		name   string
		tamper func(info *Info)
		want   string
	}{
		{"out of range", func(info *Info) { info.Defs[0].id = info.NumDefs }, "outside"},
		{"negative", func(info *Info) { info.Phis[0].id = -1 }, "outside"},
		{"duplicate", func(info *Info) { info.Defs[1].id = info.Phis[0].id }, "repeats"},
		{"count", func(info *Info) { info.NumDefs++ }, "NumDefs"},
	} {
		info, _ := buildSSA(t, src, "a")
		tc.tamper(info)
		if err := info.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func randomArrayProgram(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("routine r(n)\nreal a(n), b(n)\nreal x\n")
	var gen func(d int)
	stmts := 0
	gen = func(d int) {
		n := 1 + rng.Intn(3)
		for i := 0; i < n && stmts < 25; i++ {
			switch {
			case d < 3 && rng.Intn(4) == 0:
				b.WriteString("do v" + string(rune('0'+stmts%10)) + string(rune('a'+d)) + " = 1, n\n")
				stmts++
				gen(d + 1)
				b.WriteString("enddo\n")
			case d < 3 && rng.Intn(4) == 0:
				b.WriteString("if (x > 0) then\n")
				stmts++
				gen(d + 1)
				if rng.Intn(2) == 0 {
					b.WriteString("else\n")
					gen(d + 1)
				}
				b.WriteString("endif\n")
			default:
				switch rng.Intn(3) {
				case 0:
					b.WriteString("a(1) = b(1)\n")
				case 1:
					b.WriteString("b(2) = a(2)\n")
				default:
					b.WriteString("a(3) = a(3) + b(3)\n")
				}
				stmts++
			}
		}
	}
	gen(0)
	b.WriteString("end\n")
	return b.String()
}
