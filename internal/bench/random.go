package bench

import (
	"fmt"
	"math/rand"
	"strings"
)

// RandomProgram returns the seed's random mini-HPF routine `fuzz(n,
// steps)`: the input of this package's soundness fuzzers, exported so
// the analysis and placement tests of other packages can run over the
// same programs.
func RandomProgram(seed int64) string { return (&progGen{}).generate(seed) }

// progGen generates random but well-formed mini-HPF programs over a
// fixed set of distributed 2-d arrays: stencil statements with random
// offsets (including diagonals), occasional strided array statements,
// IF/ELSE around nests, reductions into scalars, and a timestep loop.
// TestRandomProgramsEndToEnd compiles every generated program under all
// three strategies and executes it on the functional simulator;
// stale-read detection plus elementwise comparison against a
// single-processor run make this a soundness fuzzer for the whole
// placement pipeline.
type progGen struct {
	rng    *rand.Rand
	b      strings.Builder
	arrays []string
	scalar int
	depth  int
}

func (g *progGen) line(format string, args ...any) {
	fmt.Fprintf(&g.b, format+"\n", args...)
}

// stencil emits one nest writing dst from a random stencil of src.
func (g *progGen) stencil(dst, src string) {
	di := g.rng.Intn(3) - 1 // -1, 0, 1
	dj := g.rng.Intn(3) - 1
	di2 := g.rng.Intn(3) - 1
	dj2 := g.rng.Intn(3) - 1
	g.line("do i = 2, n - 1")
	g.line("do j = 2, n - 1")
	g.line("%s(i, j) = 0.4 * %s(i + %d, j + %d) + 0.3 * %s(i + %d, j + %d) + 0.2 * %s(i, j)",
		dst, src, di, dj, src, di2, dj2, dst)
	g.line("enddo")
	g.line("enddo")
}

// arrayStmt emits an F90 array statement (exercises the scalarizer).
func (g *progGen) arrayStmt(dst, src string) {
	if g.rng.Intn(2) == 0 {
		g.line("%s(2:n, 2:n) = %s(1:n-1, 1:n-1) * 0.5", dst, src)
	} else {
		g.line("%s(1:n:2, 1:n) = %s(1:n:2, 1:n) + 1", dst, src)
	}
}

// reduction emits a SUM into a fresh scalar and a use of it.
func (g *progGen) reduction(src, dst string) {
	g.scalar++
	s := fmt.Sprintf("s%d", g.scalar)
	g.line("%s = sum(%s(2, 1:n))", s, src)
	g.line("do i = 2, n - 1")
	g.line("do j = 2, n - 1")
	g.line("%s(i, j) = %s(i, j) + 0.001 * %s", dst, dst, s)
	g.line("enddo")
	g.line("enddo")
}

func (g *progGen) stmtBlock(budget int) {
	for k := 0; k < budget; k++ {
		dst := g.arrays[g.rng.Intn(len(g.arrays))]
		src := g.arrays[g.rng.Intn(len(g.arrays))]
		switch g.rng.Intn(6) {
		case 0:
			g.arrayStmt(dst, src)
		case 1:
			g.reduction(src, dst)
		case 2:
			if g.depth < 1 {
				g.depth++
				g.line("if (x > 0) then")
				g.stmtBlock(1)
				if g.rng.Intn(2) == 0 {
					g.line("else")
					g.stmtBlock(1)
				}
				g.line("endif")
				g.depth--
				continue
			}
			g.stencil(dst, src)
		default:
			g.stencil(dst, src)
		}
	}
}

func (g *progGen) generate(seed int64) string {
	g.rng = rand.New(rand.NewSource(seed))
	g.b.Reset()
	g.scalar = 0
	g.arrays = []string{"u", "v", "w"}
	g.line("routine fuzz(n, steps)")
	g.line("real u(0:n+1, 0:n+1), v(0:n+1, 0:n+1), w(0:n+1, 0:n+1)")
	// Plenty of scalars for the reductions.
	var scalars []string
	for i := 1; i <= 12; i++ {
		scalars = append(scalars, fmt.Sprintf("s%d", i))
	}
	g.line("real x, %s", strings.Join(scalars, ", "))
	g.line("!hpf$ distribute (block, block) :: u, v, w")
	g.line("do i = 0, n + 1")
	g.line("do j = 0, n + 1")
	g.line("u(i, j) = 1 + mod(i * 3 + j, 7) * 0.25")
	g.line("v(i, j) = 1 + mod(i + j * 2, 5) * 0.5")
	g.line("w(i, j) = 0")
	g.line("enddo")
	g.line("enddo")
	g.line("x = %d", g.rng.Intn(3)-1)
	g.line("do it = 1, steps")
	g.stmtBlock(3 + g.rng.Intn(3))
	g.line("enddo")
	g.line("end")
	return g.b.String()
}

// StencilNests returns the seed's routine `nests(n, steps)`: k random
// 2-D stencil nests over six BLOCK-BLOCK arrays inside one time-step
// loop, each nest writing one array from a stencil of another as
// RandomProgram's do. Its size is k, and so is everything that grows
// with the routine: the input of the analysis' scaling test and
// benchmark (core's TestAnalysisScales, BenchmarkAnalysisScale).
func StencilNests(k int, seed int64) string {
	g := &progGen{rng: rand.New(rand.NewSource(seed)), arrays: []string{"f1", "f2", "f3", "f4", "f5", "f6"}}
	g.line("routine nests(n, steps)")
	g.line("real %s", strings.Join(g.decls(), ", "))
	g.line("!hpf$ distribute (block, block) :: %s", strings.Join(g.arrays, ", "))
	g.line("do i = 0, n + 1")
	g.line("do j = 0, n + 1")
	for a, name := range g.arrays {
		g.line("%s(i, j) = 1 + mod(i * %d + j, 7) * 0.25", name, a+1)
	}
	g.line("enddo")
	g.line("enddo")
	g.line("do it = 1, steps")
	for range k {
		g.stencil(g.arrays[g.rng.Intn(len(g.arrays))], g.arrays[g.rng.Intn(len(g.arrays))])
	}
	g.line("enddo")
	g.line("end")
	return g.b.String()
}

// decls declares every array of the generator over 0:n+1 in both
// dimensions.
func (g *progGen) decls() []string {
	out := make([]string, len(g.arrays))
	for i, name := range g.arrays {
		out[i] = name + "(0:n+1, 0:n+1)"
	}
	return out
}
