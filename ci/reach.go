//go:build ignore

// reach.go is the check behind ci/reach.sh:
//
//	go run ci/reach.go <list> <dump>...
//
// Each dump is what `go build -gcflags=all=-l -ldflags=-dumpdep` of one
// binary prints: a "# <import path>" header, then a "from -> to" line per
// symbol the linker keeps. A func declaration of the module (the non-test
// files of `go list ./...`, so not benchmark/, its own module) is reached
// when its symbol is on either side of a line. The check fails on each
// declaration no binary reaches that no entry of the list covers, and on
// each entry that covers no declaration, covers a reached one, or cites a
// test `go test -list` does not list.
//
// An entry is "<function> <kind> <test>"; the function may be a
// path.Match pattern. kind is oracle (a test of another package calls it,
// so export_test.go cannot hold it; <test> is <package>.<Test>), api
// (README documents it; <test> is README) or marker (a method without
// parameters, results or statements that closes an interface; <test> is
// the interface, <package>.<Type>).
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"log"
	"os"
	"os/exec"
	"path"
	"strings"
)

type decl struct {
	key, pos string // <import path>.[<Recv>.]<Name>; file:line
	lines    int
	marker   bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("reach: ")
	reached := map[string]bool{}
	for _, f := range os.Args[2:] {
		readDump(f, reached)
	}
	decls, ifaces := listDecls()
	var entries [][3]string
	var testPkgs []string
	data, err := os.ReadFile(os.Args[1])
	check(err)
	for i, line := range strings.Split(string(data), "\n") {
		line, _, _ = strings.Cut(line, "#")
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 3 {
			log.Fatalf("%s:%d: want <function> <kind> <test>", os.Args[1], i+1)
		}
		entries = append(entries, [3]string{f[0], f[1], f[2]})
		if f[1] == "oracle" {
			pkg, _ := splitKey(f[2])
			testPkgs = append(testPkgs, pkg)
		}
	}
	tests := listTests(testPkgs)

	bad := 0
	report := func(format string, args ...any) {
		fmt.Printf("reach: "+format+"\n", args...)
		bad++
	}
	covered := map[string]bool{}
	for _, e := range entries {
		fn, kind, test := e[0], e[1], e[2]
		pat, matched := normalize(fn), 0
		for _, d := range decls {
			if ok, _ := path.Match(pat, d.key); ok && (kind != "marker" || d.marker) {
				matched++
				covered[d.key] = true
				if reached[d.key] {
					report("%s is listed as %s, but a binary reaches it (%s): take it off the list", d.key, kind, d.pos)
				}
			}
		}
		if matched == 0 {
			report("%s is listed but names no func declaration", fn)
		}
		method := pat[strings.LastIndex(pat, ".")+1:]
		switch {
		case kind == "oracle" && !tests[test]:
			report("%s cites %s, which go test -list does not list", fn, test)
		case kind == "api" && test != "README":
			report("%s is api but cites %s, not README", fn, test)
		case kind == "marker" && !ifaces[test+"."+method]:
			report("%s cites %s, which is no interface declaring %s", fn, test, method)
		case kind != "oracle" && kind != "api" && kind != "marker":
			report("%s: kind %q is none of oracle, api, marker", fn, kind)
		}
	}
	for _, d := range decls {
		if !reached[d.key] && !covered[d.key] {
			report("%s: %s (%d lines) is reached by no binary: delete it, move it to its package's export_test.go, or list it in %s", d.pos, d.key, d.lines, os.Args[1])
		}
	}
	if bad > 0 {
		log.Fatalf("%d problem(s)", bad)
	}
	fmt.Printf("reach: ok: %d func declarations, %d of them listed in %s\n", len(decls), len(covered), os.Args[1])
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// readDump adds every symbol of one dump to reached, main.* ones under
// the import path of the header's binary.
func readDump(file string, reached map[string]bool) {
	f, err := os.Open(file)
	check(err)
	defer f.Close()
	mainPkg := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if pkg, ok := strings.CutPrefix(sc.Text(), "# "); ok {
			mainPkg = pkg
			continue
		}
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		for _, sym := range []string{from, to} {
			sym = normalize(strings.TrimSuffix(sym, " <UsedInIface>"))
			if rest, ok := strings.CutPrefix(sym, "main."); ok {
				sym = mainPkg + "." + rest
			}
			reached[sym] = true
		}
	}
	check(sc.Err())
	if mainPkg == "" {
		log.Fatalf("%s: no # <import path> header: not a -dumpdep output", file)
	}
}

// normalize drops a generic instantiation's type arguments
// ("[go.shape.int]") and a receiver's pointer ("(*T).M" is "T.M").
func normalize(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return strings.NewReplacer("(*", "", ")", "").Replace(b.String())
}

// splitKey splits "<import path>.<rest>" at the first dot after the
// import path's last slash.
func splitKey(key string) (pkg, rest string) {
	slash := strings.LastIndex(key, "/") + 1
	dot := strings.Index(key[slash:], ".")
	if dot < 0 {
		return "", ""
	}
	return key[:slash+dot], key[slash+dot+1:]
}

// listDecls returns the module's non-test func declarations but init, and
// its interfaces' methods as "<package>.<Interface>.<method>".
func listDecls() ([]decl, map[string]bool) {
	out, err := exec.Command(goCmd(), "list", "-f", `{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}`, "./...").Output()
	check(err)
	wd, _ := os.Getwd()
	var decls []decl
	ifaces := map[string]bool{}
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		pkg := f[0]
		for _, name := range f[2:] {
			file, err := parser.ParseFile(fset, f[1]+"/"+name, nil, parser.SkipObjectResolution)
			check(err)
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					key := pkg + "." + n.Name.Name
					if n.Recv != nil {
						key = pkg + "." + recvName(n.Recv.List[0].Type) + "." + n.Name.Name
					}
					start, end := fset.Position(n.Pos()), fset.Position(n.End())
					marker := n.Recv != nil && n.Body != nil && len(n.Body.List) == 0 &&
						n.Type.Params.NumFields() == 0 && n.Type.Results.NumFields() == 0
					if n.Name.Name != "init" {
						pos := fmt.Sprintf("%s:%d", strings.TrimPrefix(start.Filename, wd+"/"), start.Line)
						decls = append(decls, decl{key, pos, end.Line - start.Line + 1, marker})
					}
					return false
				case *ast.TypeSpec:
					if it, ok := n.Type.(*ast.InterfaceType); ok {
						for _, m := range it.Methods.List {
							for _, id := range m.Names {
								ifaces[pkg+"."+n.Name.Name+"."+id.Name] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	return decls, ifaces
}

// recvName is a receiver's type name without its pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			log.Fatalf("receiver type %T", e)
		}
	}
}

// listTests returns the "<package>.<Test>" `go test -list .` lists for
// the packages: each package's names come before its "ok" line.
func listTests(pkgs []string) map[string]bool {
	tests := map[string]bool{}
	if len(pkgs) == 0 {
		return tests
	}
	out, err := exec.Command(goCmd(), append([]string{"test", "-list", "."}, pkgs...)...).CombinedOutput()
	if err != nil {
		log.Fatalf("go test -list: %v\n%s", err, out)
	}
	var names []string
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 1:
			names = append(names, f[0])
		case len(f) > 1 && (f[0] == "ok" || f[0] == "?"):
			for _, n := range names {
				tests[f[1]+"."+n] = true
			}
			names = names[:0]
		}
	}
	return tests
}

func goCmd() string {
	if g := os.Getenv("GO"); g != "" {
		return g
	}
	return "go"
}
