package native_test

import (
	"testing"

	"gcao/internal/bench"
	"gcao/internal/machine"
	"gcao/internal/native"
	"gcao/internal/refeval"
	"gcao/internal/runtime"
	"gcao/internal/spmd"
)

// mostBoxes returns the longest list of valid boxes any processor held of
// any array of an image, and the array's name.
func mostBoxes(mem *runtime.Memory) (most int, name string) {
	for _, am := range mem.Arrays {
		for p := range am.Data {
			if n := am.MostBoxes(p); n > most {
				most, name = n, am.Name
			}
		}
	}
	return most, name
}

// TestValidBoxFragmentation pins the longest list of valid boxes a
// processor holds of an array over a run of every Fig. 10(a) routine ×
// version × P ∈ {4, 16}, on both backends: a nest's entry proof (Holds)
// and a tested read (ValidAt) scan the list, so a change that fragments it
// fails here before it shows as time.
func TestValidBoxFragmentation(t *testing.T) {
	pins := map[string]int{
		"shallow/main": 2, "gravity/main": 4, "trimesh/normdot": 4,
		"trimesh/gauss": 4, "hydflo/flux": 4, "hydflo/hydro": 4,
	}
	for _, pr := range bench.Programs() {
		n, most, at := 12, 0, ""
		if pr.Bench == "hydflo" {
			n = 10
		}
		for _, v := range versions {
			for _, p := range []int{4, 16} {
				res := place(t, pr, n, p, v)
				nat, err := native.Run(res, p)
				if err != nil {
					t.Fatalf("%s/%s/%s/P%d native: %v", pr.Bench, pr.Routine, v, p, err)
				}
				sim, err := spmd.RunParallel(res, machine.SP2(), p, 0)
				if err != nil {
					t.Fatalf("%s/%s/%s/P%d simulator: %v", pr.Bench, pr.Routine, v, p, err)
				}
				for backend, mem := range map[string]*runtime.Memory{"native": nat.Mem, "simulator": sim.Mem} {
					m, name := mostBoxes(mem)
					t.Logf("%s/%s/%s/P%d %s: %d boxes (%s)", pr.Bench, pr.Routine, v, p, backend, m, name)
					if m > most {
						most, at = m, name
					}
				}
			}
		}
		if key := pr.Bench + "/" + pr.Routine; most != pins[key] {
			t.Errorf("%s: the longest list of valid boxes is %d (of %s), pinned at %d", key, most, at, pins[key])
		}
	}
}

// diagonalSrc reads a one-sided diagonal stencil: a processor takes its
// upper neighbour's last row widened by a column each side, of which that
// neighbour holds the left corner — delivered to it by the column exchange
// before — and not the right one.
const diagonalSrc = `
routine s(n)
real a(n, n), b(n, n)
!hpf$ distribute (block, block) :: a, b
do i = 1, n
do j = 1, n
a(i, j) = i * 10 + j
b(i, j) = 0
enddo
enddo
do i = 2, n
do j = 2, n
b(i, j) = a(i - 1, j - 1) + a(i, j - 1) + a(i - 1, j)
enddo
enddo
end
`

// TestPartiallyValidStrip: a strip its sender holds partly valid — its
// own part and one corner of two — arrives as its bits say, on both
// backends: a native receiver makes the sender's owned part valid whole
// and the corner as a run of set bits, the simulator copies the two parts
// the sender's boxes give; both leave the reference's image bit for bit
// and each other's validity, the corner valid, the other stale.
func TestPartiallyValidStrip(t *testing.T) {
	const n = 12
	for _, procs := range []int{9, 16} {
		res := placeSrc(t, diagonalSrc, map[string]int{"n": n}, procs)
		if err := native.VerifyAgainstSimulator(res, machine.SP2(), procs); err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
		ref, err := refeval.Run(res.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		nat, err := native.Run(res, procs)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Check(nat.Mem, nat.Scalars); err != nil {
			t.Errorf("P=%d: %v", procs, err)
		}
		// Processor p at grid (1, 1) sits inside the grid: above it, its
		// neighbour's last row, of which the corner on the left arrived and
		// the one on the right did not.
		a := nat.Mem.View("a")
		p := a.Dist.Grid.PID([]int{1, 1})
		r0, _ := a.OwnedBox(p, 0)
		c0, c1 := a.OwnedBox(p, 1)
		left, right := []int{r0 - 1, c0 - 1}, []int{r0 - 1, c1 + 1}
		if !a.ValidAt(p, left) || a.ValidAt(p, right) {
			t.Errorf("P=%d: processor %d holds a%v valid %v and a%v valid %v, want true and false",
				procs, p, left, a.ValidAt(p, left), right, a.ValidAt(p, right))
		}
	}
}
