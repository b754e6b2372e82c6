package parser_test

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"gcao/internal/ast"
	"gcao/internal/bench"
	"gcao/internal/parser"
	"gcao/internal/source"
)

var update = flag.Bool("update", false, "rewrite testdata/ast.golden from this revision's parser")

// goldenErrors are inputs every parser must reject, with the exact text
// of the error the parser returns.
var goldenErrors = []struct{ name, src string }{
	{"missing end", "routine f()\nx = 1\n"},
	{"unterminated do", "routine f()\ndo i = 1, 2\nx = 1\nend\n"},
	{"unterminated do at EOF", "routine f()\ndo i = 1, 2\nx = 1\n"},
	{"unterminated if", "routine f()\nif (x) then\nx = 1\n"},
	{"unterminated else", "routine f()\nif (x) then\nx = 1\nelse\nx = 2\n"},
	{"bad directive", "routine f()\n!hpf$ align a with b\nend\n"},
	{"empty input", "\n"},
	{"only comments", "! nothing here\n\n"},
	{"garbage stmt", "routine f()\n+ 1\nend\n"},
	{"bad dist kind", "routine f()\nreal a(4)\n!hpf$ distribute a(diag)\nend\n"},
	{"big integer", "routine f()\nx = 12345678901234567890\nend\n"},
	{"int64 overflow", "routine f()\nx = 9223372036854775808\nend\n"},
	{"real overflow", "routine f()\nx = 1e400\nend\n"},
	{"scan error", "routine f()\na = @\nend\n"},
	{"scan error after a parse error", "routine f()\n+ 1\nend\n@\n"},
	{"scan error after the routine", "routine f()\nx = 1\nend\n#\n"},
	{"two scan errors", "routine f()\nx = $ + ?\nend\n"},
	{"non-ASCII letter", "routine f()\nx = é\nend\n"},
	{"number then letters", "routine f()\nx = 2elements\nend\n"},
	{"non-ASCII digit", "routine f()\nx = ٣\nend\n"},
	{"missing routine keyword", "real x\nend\n"},
	{"missing name", "routine (n)\nend\n"},
	{"unclosed params", "routine f(n\nend\n"},
	{"bad param", "routine f(1)\nend\n"},
	{"junk after header", "routine f() x\nend\n"},
	{"decl without name", "routine f()\nreal 1\nend\n"},
	{"unclosed bound", "routine f()\nreal a(4\nend\n"},
	{"processors without paren", "routine f()\n!hpf$ processors p 4\nend\n"},
	{"processors unclosed", "routine f()\n!hpf$ processors p(4\nend\n"},
	{"distribute without paren", "routine f()\n!hpf$ distribute a block\nend\n"},
	{"distribute onto nothing", "routine f()\n!hpf$ distribute a(block) onto\nend\n"},
	{"distribute single colon", "routine f()\n!hpf$ distribute (block) : a\nend\n"},
	{"distribute no arrays", "routine f()\n!hpf$ distribute (block) :: \nend\n"},
	{"do without var", "routine f()\ndo = 1, 2\nenddo\nend\n"},
	{"do without assign", "routine f()\ndo i 1, 2\nenddo\nend\n"},
	{"do without comma", "routine f()\ndo i = 1 2\nenddo\nend\n"},
	{"end without do", "routine f()\ndo i = 1, 2\nend if\nend\n"},
	{"if without paren", "routine f()\nif x then\nendif\nend\n"},
	{"if without then", "routine f()\nif (x)\nendif\nend\n"},
	{"if unclosed cond", "routine f()\nif (x then\nendif\nend\n"},
	{"else with junk", "routine f()\nif (x) then\nelse x\nendif\nend\n"},
	{"end without if", "routine f()\nif (x) then\nend do\nend\n"},
	{"call without name", "routine f()\ncall (1)\nend\n"},
	{"call unclosed", "routine f()\ncall g(1\nend\n"},
	{"assign without rhs", "routine f()\nx =\nend\n"},
	{"assign without equals", "routine f()\nx 1\nend\n"},
	{"assign junk after", "routine f()\nx = 1 2\nend\n"},
	{"empty subscript", "routine f()\nx = a()\nend\n"},
	{"unclosed subscript", "routine f()\nx = a(1\nend\n"},
	{"unclosed paren", "routine f()\nx = (1 + 2\nend\n"},
	{"dangling operator", "routine f()\nx = 1 +\nend\n"},
	{"dangling power", "routine f()\nx = 2 **\nend\n"},
	{"dangling minus", "routine f()\nx = -\nend\n"},
	{"dangling comparison", "routine f()\nif (x <) then\nendif\nend\n"},
	{"intrinsic unclosed", "routine f()\nx = sum(a(1:2)\nend\n"},
	{"intrinsic empty", "routine f()\nx = sqrt()\nend\n"},
	{"range step missing", "routine f()\nx = a(1::)\nend\n"},
	{"range second colon", "routine f()\nx = a(1:2:)\nend\n"},
	{"end routine junk", "routine f()\nx = 1\nend routine f g\n"},
	{"statement after EOF in routine", "routine f()\ndo i = 1, 2\n"},
}

// ParseRoutine's own error, for a well-formed program of two routines.
const twoRoutines = "routine a()\nreal x\nx=1\nend\nroutine b()\nreal y\ny=1\nend\n"

// TestASTGolden holds the parser's output — every node, every position,
// every list's nil-ness — on the Fig. 10(a) routines, fifty random
// programs and the parser tests' inputs, and the exact error on each
// rejected input, against testdata/ast.golden.
func TestASTGolden(t *testing.T) {
	got := goldenDump()
	path := filepath.Join("testdata", "ast.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("ast.golden differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("ast.golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// goldenCorpus lists every input the golden covers, parsing or not.
func goldenCorpus() []struct{ name, src string } {
	var out []struct{ name, src string }
	for _, pr := range bench.Programs() {
		out = append(out, struct{ name, src string }{pr.Bench + "/" + pr.Routine, pr.Source})
	}
	for seed := int64(1); seed <= 50; seed++ {
		out = append(out, struct{ name, src string }{"random " + strconv.FormatInt(seed, 10), bench.RandomProgram(seed)})
	}
	for _, c := range bench.SyntaxSources() {
		out = append(out, struct{ name, src string }{c.Name, c.Src})
	}
	return append(out, goldenErrors...)
}

func goldenDump() string {
	var b strings.Builder
	for _, c := range goldenCorpus() {
		fmt.Fprintf(&b, "=== %s\n", c.name)
		prog, err := parser.Parse(c.src)
		if err != nil {
			fmt.Fprintf(&b, "error %T: %v\n", err, err)
			continue
		}
		dumpProgram(&b, prog)
	}
	_, err := parser.ParseRoutine(twoRoutines)
	fmt.Fprintf(&b, "=== ParseRoutine of two routines\nerror %T: %v\n", err, err)
	return b.String()
}

func dumpProgram(b *strings.Builder, prog *ast.Program) {
	for _, r := range prog.Routines {
		fmt.Fprintf(b, "routine %s @%s params %s\n", r.Name, r.Pos, strs(r.Params))
		fmt.Fprintf(b, "decls %s\n", count(len(r.Decls), r.Decls == nil))
		for _, d := range r.Decls {
			fmt.Fprintf(b, "  decl %s @%s items %s\n", d.Type, d.Pos, count(len(d.Items), d.Items == nil))
			for _, it := range d.Items {
				fmt.Fprintf(b, "    %s bounds %s", it.Name, count(len(it.Bounds), it.Bounds == nil))
				for _, bd := range it.Bounds {
					fmt.Fprintf(b, " [%s : %s]", expr(bd.Lo), expr(bd.Hi))
				}
				b.WriteByte('\n')
			}
		}
		fmt.Fprintf(b, "dirs %s\n", count(len(r.Dirs), r.Dirs == nil))
		for _, d := range r.Dirs {
			switch d := d.(type) {
			case *ast.ProcessorsDir:
				fmt.Fprintf(b, "  processors %s @%s shape %s", d.Name, d.Pos, count(len(d.Shape), d.Shape == nil))
				for _, e := range d.Shape {
					fmt.Fprintf(b, " %s", expr(e))
				}
				b.WriteByte('\n')
			case *ast.DistributeDir:
				fmt.Fprintf(b, "  distribute @%s arrays %s kinds %s %v onto %q\n", d.Pos, strs(d.Arrays),
					count(len(d.Kinds), d.Kinds == nil), d.Kinds, d.Onto)
			default:
				fmt.Fprintf(b, "  %T\n", d)
			}
		}
		dumpBody(b, "body", r.Body, 0)
	}
}

func dumpBody(b *strings.Builder, label string, body []ast.Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%s %s\n", ind, label, count(len(body), body == nil))
	for _, s := range body {
		switch s := s.(type) {
		case *ast.AssignStmt:
			fmt.Fprintf(b, "%s  assign @%s label %q %s = %s\n", ind, s.Pos, s.Label, expr(s.LHS), expr(s.RHS))
		case *ast.DoStmt:
			fmt.Fprintf(b, "%s  do %s @%s %s %s %s\n", ind, s.Var, s.Pos, expr(s.Lo), expr(s.Hi), expr(s.Step))
			dumpBody(b, "body", s.Body, depth+2)
		case *ast.IfStmt:
			fmt.Fprintf(b, "%s  if @%s %s\n", ind, s.Pos, expr(s.Cond))
			dumpBody(b, "then", s.Then, depth+2)
			dumpBody(b, "else", s.Else, depth+2)
		case *ast.CallStmt:
			fmt.Fprintf(b, "%s  call %s @%s args %s", ind, s.Name, s.Pos, count(len(s.Args), s.Args == nil))
			for _, a := range s.Args {
				fmt.Fprintf(b, " %s", expr(a))
			}
			b.WriteByte('\n')
		default:
			fmt.Fprintf(b, "%s  %T\n", ind, s)
		}
	}
}

// expr renders an expression as an s-expression with every position.
func expr(e ast.Expr) string {
	switch e := e.(type) {
	case nil:
		return "-"
	case *ast.NumLit:
		return fmt.Sprintf("(num %q int=%t %d %s @%s)", e.Text, e.IsInt, e.Int,
			strconv.FormatFloat(e.Value, 'g', -1, 64), e.Pos)
	case *ast.Ident:
		return fmt.Sprintf("(id %s @%s)", e.Name, e.Pos)
	case *ast.Ref:
		var b strings.Builder
		fmt.Fprintf(&b, "(ref %s @%s subs %s", e.Name, e.Pos, count(len(e.Subs), e.Subs == nil))
		for _, s := range e.Subs {
			if s.Kind == ast.SubExpr {
				fmt.Fprintf(&b, " (x %s)", expr(s.X))
				if s.Lo != nil || s.Hi != nil || s.Step != nil {
					b.WriteString(" !triplet-parts")
				}
			} else {
				fmt.Fprintf(&b, " (range %s %s %s)", expr(s.Lo), expr(s.Hi), expr(s.Step))
				if s.X != nil {
					b.WriteString(" !x")
				}
			}
		}
		return b.String() + ")"
	case *ast.BinExpr:
		return fmt.Sprintf("(%s @%s %s %s)", e.Op, e.Pos, expr(e.X), expr(e.Y))
	case *ast.UnaryExpr:
		return fmt.Sprintf("(neg @%s %s)", e.Pos, expr(e.X))
	case *ast.Call:
		var b strings.Builder
		fmt.Fprintf(&b, "(call %s @%s args %s", e.Func, e.Pos, count(len(e.Args), e.Args == nil))
		for _, a := range e.Args {
			fmt.Fprintf(&b, " %s", expr(a))
		}
		return b.String() + ")"
	}
	return fmt.Sprintf("(%T)", e)
}

func count(n int, isNil bool) string {
	if isNil {
		return "nil"
	}
	return strconv.Itoa(n)
}

func strs(s []string) string {
	if s == nil {
		return "nil"
	}
	return fmt.Sprintf("%q", s)
}

// FuzzParse holds three properties on any input: the parser does not
// panic; every error is a *source.Error positioned inside the input,
// except the unpositioned one for an input without a routine; and a
// second parse of the same input gives the same dump, or the same error.
func FuzzParse(f *testing.F) {
	for _, c := range goldenCorpus() {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		first, err := dumpOrError(src)
		if err != nil {
			var serr *source.Error
			switch {
			case errors.As(err, &serr):
				if !inside(src, serr.Pos) {
					t.Fatalf("error %q is positioned outside the input", err)
				}
			case err.Error() != "parser: no routines in input":
				t.Fatalf("error %q (%T) is not a *source.Error", err, err)
			}
		}
		if second, _ := dumpOrError(src); second != first {
			t.Fatalf("two parses differ:\n%s\n---\n%s", first, second)
		}
	})
}

func dumpOrError(src string) (string, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return "error: " + err.Error(), err
	}
	var b strings.Builder
	dumpProgram(&b, prog)
	return b.String(), nil
}

// inside reports whether pos names a byte of src or the end of one of its
// lines.
func inside(src string, pos source.Pos) bool {
	lines := strings.Split(src, "\n")
	return pos.Line >= 1 && pos.Line <= len(lines) && pos.Col >= 1 && pos.Col <= len(lines[pos.Line-1])+1
}

// TestParseAllocs pins what parsing the six Fig. 10(a) routines
// allocates: 5,490 times when every token, node and list was its own
// allocation, 212 with the streaming scanner and the per-type slabs when
// the pin was set.
func TestParseAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector moves stack allocations to the heap")
	}
	progs := bench.Programs()
	allocs := testing.AllocsPerRun(20, func() {
		for _, pr := range progs {
			if _, err := parser.ParseRoutine(pr.Source); err != nil {
				t.Fatal(err)
			}
		}
	})
	const budget = 265
	t.Logf("the six routines parse in %.0f allocations", allocs)
	if allocs > budget {
		t.Errorf("the six routines parse in %.0f allocations, budget %d", allocs, budget)
	}
}

func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// BenchmarkParse parses the six Fig. 10(a) routines per op: the
// compile-suite's parser.parse layer.
func BenchmarkParse(b *testing.B) {
	progs := bench.Programs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, pr := range progs {
			if _, err := parser.ParseRoutine(pr.Source); err != nil {
				b.Fatal(err)
			}
		}
	}
}
