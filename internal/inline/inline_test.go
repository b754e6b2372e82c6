package inline

import (
	"strings"
	"testing"

	"gcao/internal/ast"
	"gcao/internal/parser"
)

func flatten(t *testing.T, src, main string) *ast.Routine {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	r, err := Flatten(prog, main)
	if err != nil {
		t.Fatalf("flatten: %v", err)
	}
	return r
}

const twoRoutineSrc = `
routine main(n)
real a(n, n), b(n, n)
!hpf$ distribute (block, block) :: a, b
call smooth(a, n)
call smooth(b, n)
end

routine smooth(q, n)
real q(n, n)
real tmp(n, n)
!hpf$ distribute (block, block) :: tmp
do i = 2, n - 1
do j = 2, n - 1
tmp(i, j) = q(i - 1, j) + q(i + 1, j)
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
q(i, j) = 0.5 * tmp(i, j)
enddo
enddo
end
`

func TestFlattenBasics(t *testing.T) {
	r := flatten(t, twoRoutineSrc, "main")
	body := renderBody(r)
	// Both expansions present, on the right arrays.
	if !strings.Contains(body, "a((i$c1 - 1),j$c1)") && !strings.Contains(body, "a((i$c1 - 1)") {
		t.Errorf("first expansion should read a:\n%s", body)
	}
	if !strings.Contains(body, "b(") {
		t.Errorf("second expansion should read b:\n%s", body)
	}
	// No calls remain.
	if strings.Contains(body, "call ") {
		t.Errorf("a call statement survived flattening:\n%s", body)
	}
	// tmp hoisted twice with distinct names + distribute directives.
	names := map[string]bool{}
	for _, d := range r.Decls {
		for _, item := range d.Items {
			names[item.Name] = true
		}
	}
	if !names["tmp$c1"] || !names["tmp$c2"] {
		t.Errorf("locals not hoisted uniquely: %v", names)
	}
	dirCount := 0
	for _, dir := range r.Dirs {
		if dd, ok := dir.(*ast.DistributeDir); ok {
			for _, a := range dd.Arrays {
				if strings.HasPrefix(a, "tmp$") {
					dirCount++
				}
			}
		}
	}
	if dirCount != 2 {
		t.Errorf("hoisted distribute directives = %d, want 2", dirCount)
	}

	// What holds no call is the parse's own: a routine without calls, and
	// a statement beside a call.
	prog, err := parser.Parse(twoRoutineSrc + `
routine mixed(n)
real a(n, n)
!hpf$ distribute (block, block) :: a
do i = 1, n
do j = 1, n
a(i, j) = i + j
enddo
enddo
call smooth(a, n)
end
`)
	if err != nil {
		t.Fatal(err)
	}
	var flat *ast.Routine
	allocs := testing.AllocsPerRun(10, func() { flat, err = Flatten(prog, "smooth") })
	if err != nil {
		t.Fatal(err)
	}
	if smooth := prog.Routine("smooth"); &flat.Body[0] != &smooth.Body[0] || len(flat.Body) != len(smooth.Body) {
		t.Errorf("a call-free routine's body is a copy, not the parsed list")
	}
	if allocs > 2 {
		t.Errorf("flattening a call-free routine allocates %v times, want at most 2", allocs)
	}
	if flat, err = Flatten(prog, "mixed"); err != nil {
		t.Fatal(err)
	}
	if flat.Body[0] != prog.Routine("mixed").Body[0] {
		t.Errorf("a call-free DO beside a call is a copy, not the parsed statement")
	}
}

func renderBody(r *ast.Routine) string {
	var b strings.Builder
	for _, s := range r.Body {
		b.WriteString(ast.StmtString(s))
		b.WriteByte('\n')
	}
	return b.String()
}

func TestFlattenIntArgs(t *testing.T) {
	src := `
routine main(n)
real a(n)
call fill(a, n / 2)
end

routine fill(q, m)
real q(2 * m)
do i = 1, m
q(i) = i
enddo
end
`
	r := flatten(t, src, "main")
	body := renderBody(r)
	if !strings.Contains(body, "(n / 2)") {
		t.Errorf("integer argument should substitute as an expression:\n%s", body)
	}
}

func TestFlattenNested(t *testing.T) {
	src := `
routine main(n)
real a(n)
call outer(a, n)
end

routine outer(q, n)
real q(n)
call leaf(q, n)
end

routine leaf(q, n)
real q(n)
do i = 1, n
q(i) = 1
enddo
end
`
	r := flatten(t, src, "main")
	body := renderBody(r)
	if !strings.Contains(body, "a(") {
		t.Errorf("nested inline should bottom out on a:\n%s", body)
	}
}

func TestFlattenErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown", "routine main()\nreal a(4)\ncall nope(a)\nend\n", "unknown routine"},
		{"recursive", `
routine main()
real a(4)
call main()
end
`, "recursive"},
		{"arity", `
routine main()
real a(4)
call s(a, 1)
end
routine s(q)
real q(4)
q(1) = 0
end
`, "arguments"},
		{"non-array arg", `
routine main()
real x
call s(x)
end
routine s(q)
real q(4)
q(1) = 0
end
`, "must name an array"},
		{"callee processors", `
routine main()
real a(4)
call s(a)
end
routine s(q)
real q(4)
!hpf$ processors p(2)
q(1) = 0
end
`, "PROCESSORS"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := parser.Parse(tc.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, err = Flatten(prog, "main")
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("want error containing %q, got %v", tc.wantSub, err)
			}
		})
	}
}
