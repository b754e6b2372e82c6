package scalarize_test

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gcao/internal/ast"
	"gcao/internal/bench"
	"gcao/internal/parser"
	"gcao/internal/scalarize"
	"gcao/internal/sem"
)

// TestScalarizeLeavesInputIntact holds the scalarizer to copy-on-write
// over the six Fig. 10(a) routines, the parser's syntax corpus (what sem
// accepts of it) and 50 random programs: Scalarize writes nothing of the
// parsed routine, a second Scalarize of the same unit gives what the
// first gave, and a statement it does not rewrite comes back as the
// parsed statement itself — a list nothing in which is rewritten, as the
// parsed list itself.
func TestScalarizeLeavesInputIntact(t *testing.T) {
	type unit struct {
		name string
		u    *sem.Unit
	}
	var units []unit
	add := func(name, src string, params func(r *ast.Routine) map[string]int, procs int) {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range prog.Routines {
			if u, err := sem.Analyze(r, params(r), sem.Options{Procs: procs}); err == nil {
				units = append(units, unit{name + "/" + r.Name, u})
			}
		}
	}
	for _, pr := range bench.Programs() {
		add(pr.Bench, pr.Source, func(*ast.Routine) map[string]int { return pr.Params(pr.DefaultN) }, 25)
	}
	allEight := func(r *ast.Routine) map[string]int {
		m := map[string]int{}
		for _, p := range r.Params {
			m[p] = 8
		}
		return m
	}
	for _, c := range bench.SyntaxSources() {
		add(c.Name, c.Src, allEight, 4)
	}
	for seed := int64(1); seed <= 50; seed++ {
		add("random "+strconv.FormatInt(seed, 10), bench.RandomProgram(seed), allEight, 4)
	}
	if len(units) < 6+50+4 {
		t.Fatalf("only %d routines passed sem", len(units))
	}

	expanded := 0
	for _, c := range units {
		before := dump(c.u.Routine)
		first, err := scalarize.Scalarize(c.u)
		if err != nil {
			continue // an array statement the scalarizer rejects
		}
		if after := dump(c.u.Routine); after != before {
			t.Fatalf("%s: Scalarize wrote to the parsed routine:\nbefore %s\nafter  %s", c.name, before, after)
		}
		second, err := scalarize.Scalarize(c.u)
		if err != nil {
			t.Fatalf("%s: second Scalarize: %v", c.name, err)
		}
		if a, b := dump(first.Body), dump(second.Body); a != b {
			t.Fatalf("%s: a second Scalarize differs:\nfirst  %s\nsecond %s", c.name, a, b)
		}
		sameUnlessRewritten(t, c.name, c.u, c.u.Routine.Body, first.Body)
		expanded += first.StmtsExpanded
	}
	t.Logf("%d routines, %d array statements expanded", len(units), expanded)
	if expanded == 0 {
		t.Error("no routine had an array statement to expand")
	}
}

// sameUnlessRewritten walks a parsed list and its scalarized list side by
// side: every statement becomes exactly one. A statement rewrites when it
// is an array statement or names a whole array on its right-hand side,
// and a DO or IF when something in it does; one that does not must be
// the parsed statement itself, and one that does a new node.
func sameUnlessRewritten(t *testing.T, name string, u *sem.Unit, in, out []ast.Stmt) {
	t.Helper()
	if len(in) != len(out) {
		t.Fatalf("%s: %d statements became %d", name, len(in), len(out))
	}
	changed := false
	for i, st := range in {
		rw := rewrites(u, st)
		changed = changed || rw
		if (out[i] == st) == rw {
			t.Fatalf("%s: %s (rewritten: %v) came back as %s", name, ast.StmtString(st), rw, ast.StmtString(out[i]))
		}
		if !rw {
			continue
		}
		switch st := st.(type) {
		case *ast.DoStmt:
			sameUnlessRewritten(t, name, u, st.Body, out[i].(*ast.DoStmt).Body)
		case *ast.IfStmt:
			o := out[i].(*ast.IfStmt)
			sameUnlessRewritten(t, name, u, st.Then, o.Then)
			sameUnlessRewritten(t, name, u, st.Else, o.Else)
		}
	}
	if !changed && len(in) > 0 && &in[0] != &out[0] {
		t.Fatalf("%s: a list nothing in which was rewritten was copied", name)
	}
}

func rewrites(u *sem.Unit, st ast.Stmt) bool {
	switch st := st.(type) {
	case *ast.AssignStmt:
		if u.Arrays[st.LHS.Name] != nil && (len(st.LHS.Subs) == 0 || st.LHS.HasSection()) {
			return true
		}
		whole := false
		ast.WalkExprs(st.RHS, func(e ast.Expr) {
			if id, ok := e.(*ast.Ident); ok && u.Arrays[id.Name] != nil {
				whole = true
			}
		})
		return whole
	case *ast.DoStmt:
		return anyRewrites(u, st.Body)
	case *ast.IfStmt:
		return anyRewrites(u, st.Then) || anyRewrites(u, st.Else)
	}
	return false
}

func anyRewrites(u *sem.Unit, body []ast.Stmt) bool {
	for _, st := range body {
		if rewrites(u, st) {
			return true
		}
	}
	return false
}

// dump renders everything v reaches — every field of every node, the
// dynamic type behind every interface, and whether each pointer and list
// is nil — but no address.
func dump(v any) string {
	var b strings.Builder
	dumpValue(&b, reflect.ValueOf(v))
	return b.String()
}

func dumpValue(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		if v.Kind() == reflect.Interface {
			b.WriteString(v.Elem().Type().String())
		}
		dumpValue(b, v.Elem())
	case reflect.Struct:
		b.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(b, "%s:", v.Type().Field(i).Name)
			dumpValue(b, v.Field(i))
			b.WriteByte(' ')
		}
		b.WriteByte('}')
	case reflect.Slice:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			dumpValue(b, v.Index(i))
			b.WriteByte(' ')
		}
		b.WriteByte(']')
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	default:
		fmt.Fprint(b, v)
	}
}
