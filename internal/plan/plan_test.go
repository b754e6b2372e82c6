package plan_test

import (
	"testing"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/plan"
	"gcao/internal/runtime"
)

// TestPlanShape builds a plan for a placed benchmark and checks the
// index lowering reads: the per-block table spans the CFG and every
// placed group is reachable through Comm. (What lowering makes of the
// statements and conditions is TestLowerFig10a's business.)
func TestPlanShape(t *testing.T) {
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		t.Fatal(err)
	}
	a, err := pr.Compile(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Place(core.Options{Version: core.VersionCombine})
	if err != nil {
		t.Fatal(err)
	}
	mem := runtime.NewMemory(a.Unit, 4)
	pl := plan.New(res, mem)

	if pl.A != a || pl.Res != res {
		t.Fatal("plan does not reference its inputs")
	}
	if len(pl.Comm) != len(a.G.Blocks) {
		t.Fatalf("per-block table sized %d, want %d", len(pl.Comm), len(a.G.Blocks))
	}
	placed := 0
	for _, byPos := range pl.Comm {
		for _, groups := range byPos {
			placed += len(groups)
		}
	}
	if placed != len(res.Groups) {
		t.Fatalf("Comm indexes %d groups, placement has %d", placed, len(res.Groups))
	}
}

// TestCountFlops spot-checks the flop counter the estimator and the
// simulator charge work with.
func TestCountFlops(t *testing.T) {
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		t.Fatal(err)
	}
	a, err := pr.Compile(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range a.G.Blocks {
		for _, st := range b.Stmts {
			if st.Assign != nil {
				total += plan.CountFlops(st.Assign.RHS)
			}
		}
	}
	if total == 0 {
		t.Fatal("counted zero flops over the shallow benchmark")
	}
}

// TestBuildTree checks the binomial-tree invariants the native
// collectives rely on, across powers of two, primes and composites:
// parent/child consistency, the DFS pre-order permutation with its
// inverse and subtree sizes, and the log-P depth bound.
func TestBuildTree(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 25, 64, 100} {
		tr := plan.BuildTree(procs)
		if tr.Procs != procs || len(tr.Order) != procs {
			t.Fatalf("P=%d: order has %d entries", procs, len(tr.Order))
		}
		if tr.Parent[0] != -1 {
			t.Fatalf("P=%d: root parent = %d", procs, tr.Parent[0])
		}
		seen := make([]bool, procs)
		for i, p := range tr.Order {
			if seen[p] {
				t.Fatalf("P=%d: %d appears twice in Order", procs, p)
			}
			seen[p] = true
			if tr.Pos[p] != i {
				t.Fatalf("P=%d: Pos[%d] = %d, want %d", procs, p, tr.Pos[p], i)
			}
		}
		for p := 1; p < procs; p++ {
			if want := p &^ (p & -p); tr.Parent[p] != want {
				t.Fatalf("P=%d: Parent[%d] = %d, want %d", procs, p, tr.Parent[p], want)
			}
		}
		for p := 0; p < procs; p++ {
			size := 1
			for i, c := range tr.Children[p] {
				if c <= p || c >= procs {
					t.Fatalf("P=%d: child %d of %d out of range", procs, c, p)
				}
				if i > 0 && c <= tr.Children[p][i-1] {
					t.Fatalf("P=%d: children of %d not ascending: %v", procs, p, tr.Children[p])
				}
				if tr.Parent[c] != p {
					t.Fatalf("P=%d: Parent[%d] = %d, want %d", procs, c, tr.Parent[c], p)
				}
				size += tr.SubSize[c]
			}
			if tr.SubSize[p] != size {
				t.Fatalf("P=%d: SubSize[%d] = %d, want %d", procs, p, tr.SubSize[p], size)
			}
			// A subtree is the node followed by its children's subtrees
			// contiguously; spot-check the slice starts at p.
			if sub := tr.Subtree(p); sub[0] != p || len(sub) != size {
				t.Fatalf("P=%d: Subtree(%d) = %v", procs, p, sub)
			}
		}
		logP := 0
		for 1<<logP < procs {
			logP++
		}
		// Order is pre-order, so a parent's depth is known before its
		// children's.
		depth := make([]int, procs)
		for _, p := range tr.Order {
			if q := tr.Parent[p]; q >= 0 {
				if depth[p] = depth[q] + 1; depth[p] > logP {
					t.Fatalf("P=%d: depth %d exceeds ceil(log2 P) = %d", procs, depth[p], logP)
				}
			}
		}
	}
}

// TestLowerFig10a lowers the six Fig. 10(a) routines and checks the
// form every backend will execute: each placed group appears exactly
// once, at a communication position; every statement under a loop sits
// in a pure owner-computes nest, unguarded, below clamped loops (the
// paper's layouts are all-BLOCK, so localization must not leave one
// statement to the guarded walk); and no nest swallows a loop that
// carries communication.
func TestLowerFig10a(t *testing.T) {
	for _, pr := range bench.Programs() {
		t.Run(pr.Bench+"/"+pr.Routine, func(t *testing.T) {
			a, err := pr.Compile(12, 9)
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.Place(core.Options{Version: core.VersionCombine})
			if err != nil {
				t.Fatal(err)
			}
			prog := plan.Lower(res)

			groups, nests, stmts := 0, 0, 0
			var walk func(nodes []plan.Node, nest, clamped int)
			comm := func(c *plan.Comm, nest int) {
				if c == nil {
					return
				}
				groups += len(c.Ops)
				if nest > 0 {
					t.Errorf("communication position inside a pure nest")
				}
			}
			walk = func(nodes []plan.Node, nest, clamped int) {
				for _, n := range nodes {
					switch n := n.(type) {
					case *plan.Comm:
						comm(n, nest)
					case *plan.Loop:
						comm(n.Pre, nest)
						in := nest
						if n.Nest != nil {
							nests++
							in++
						}
						comm(n.Head, in)
						c := clamped
						if n.Clamp != nil {
							c++
						}
						walk(n.Body, in, c)
					case *plan.Stmt:
						if n.LHS == nil || n.LHS.Lay.Dist == nil {
							continue
						}
						stmts++
						if nest != 1 || n.Guard || clamped != 2 {
							t.Errorf("%s: in %d nests under %d clamped loops, guard %v; want 1, 2, false",
								n.Src, nest, clamped, n.Guard)
						}
					}
				}
			}
			walk(prog.Body, 0, 0)
			if groups != len(res.Groups) {
				t.Errorf("lowered form holds %d groups, placement has %d", groups, len(res.Groups))
			}
			if nests == 0 || stmts == 0 {
				t.Errorf("%d nests over %d array statements", nests, stmts)
			}
		})
	}
}

// TestFrameRefusesForeignImage: a Program holds layouts, never storage,
// and a frame binds the storage when it is made or reset — an image made
// under the program's own layout, or under its equal (the same unit on the
// same processor count with the same local boxes: another lowering of the
// placement). An image of another unit, even one compiled from the same
// text, and one of the unit at its declared extents (runtime.NewMemory),
// whose planes the program's offsets do not index, are errors from both,
// not misreads.
func TestFrameRefusesForeignImage(t *testing.T) {
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		t.Fatal(err)
	}
	var res [2]*core.Result
	var progs [2]*plan.Program
	for i := range progs {
		a, err := pr.Compile(8, 4)
		if err != nil {
			t.Fatal(err)
		}
		if res[i], err = a.Place(core.Options{Version: core.VersionCombine}); err != nil {
			t.Fatal(err)
		}
		progs[i] = plan.Lower(res[i])
	}
	prog, layout := progs[0], progs[0].Plan.Layout
	shared, equal := layout.NewMemory(), plan.Lower(res[0]).Plan.Layout.NewMemory()
	if shared.Layout != layout || equal.Layout == layout {
		t.Fatal("Layout.NewMemory does not share the layout, or a second lowering does")
	}
	fr, err := prog.NewFrame(0, shared)
	if err != nil {
		t.Fatal(err)
	}
	lay := layout.Array("p")
	if fr.View(lay) != shared.View("p") {
		t.Error("the frame does not resolve an array to the image it was made over")
	}
	if err := fr.Reset(equal); err != nil || fr.View(lay) != equal.View("p") {
		t.Errorf("Reset over an image of the same unit, processor count and local boxes: error %v, bound %v", err, fr.View(lay) == equal.View("p"))
	}
	for name, foreign := range map[string]*runtime.Memory{
		"another unit":     progs[1].Plan.Layout.NewMemory(),
		"declared extents": runtime.NewMemory(layout.Unit, layout.P),
	} {
		if err := fr.Reset(foreign); err == nil {
			t.Errorf("Reset bound an image of %s", name)
		}
		if fr.View(lay) != equal.View("p") {
			t.Errorf("a refused Reset over an image of %s changed the binding", name)
		}
		if _, err := prog.NewFrame(0, foreign); err == nil {
			t.Errorf("NewFrame bound an image of %s", name)
		}
	}
}
