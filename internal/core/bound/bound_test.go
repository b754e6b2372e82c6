package bound

import (
	"testing"

	"gcao/internal/core"
	"gcao/internal/parser"
	"gcao/internal/sem"
)

func compile(t *testing.T, src string, params map[string]int, procs int) *core.Analysis {
	t.Helper()
	r, err := parser.ParseRoutine(src)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sem.Analyze(r, params, sem.Options{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalysis(u)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

const stencilSrc = `
routine smooth(n, steps)
real a(0:n+1, 0:n+1), b(0:n+1, 0:n+1)
!hpf$ distribute (block, block) :: a, b
do it = 1, steps
do i = 1, n
do j = 1, n
b(i, j) = 0.25 * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))
enddo
enddo
enddo
end
`

func TestStencilBoundShape(t *testing.T) {
	a := compile(t, stencilSrc, map[string]int{"n": 16, "steps": 2}, 4)
	b := Compute(a)
	if b.Procs != 4 {
		t.Fatalf("procs = %d, want 4", b.Procs)
	}
	if b.TotalBytes <= 0 {
		t.Fatalf("stencil bound = %v, want > 0", b.TotalBytes)
	}
	// Four shift directions of one array collapse into a single "data"
	// term: each could in principle be trimmed against the others, so
	// only the cheapest is guaranteed.
	if len(b.Terms) != 1 {
		t.Fatalf("terms = %v, want one data term for array a", b.Terms)
	}
	term := b.Terms[0]
	if term.Array != "a" || term.Channel != "data" {
		t.Fatalf("term = %+v, want array a channel data", term)
	}
	if term.Entries != 4 {
		t.Fatalf("entries = %d, want the 4 stencil shifts", term.Entries)
	}
	if term.Bytes != b.TotalBytes {
		t.Fatalf("term bytes %v != total %v", term.Bytes, b.TotalBytes)
	}
}

func TestLocalProgramHasZeroBound(t *testing.T) {
	src := `
routine local(n)
real a(1:n), b(1:n)
!hpf$ distribute (block) :: a, b
do i = 1, n
b(i) = a(i) * 2.0
enddo
end
`
	a := compile(t, src, map[string]int{"n": 32}, 4)
	if b := Compute(a); b.TotalBytes != 0 || len(b.Terms) != 0 {
		t.Fatalf("aligned program bound = %+v, want zero", b)
	}
}
