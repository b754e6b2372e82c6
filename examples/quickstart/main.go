// Quickstart: compile a small block-distributed stencil, compare the
// three placement strategies, and run the optimized program on the
// simulated SP2 with numerical verification.
package main

import (
	"fmt"
	"log"

	"gcao"
)

const src = `
routine smooth(n, steps)
real a(n, n), b(n, n), ra(n, n), rb(n, n)
!hpf$ distribute (block, block) :: a, b, ra, rb
do i = 1, n
do j = 1, n
a(i, j) = mod(i * 7 + j * 3, 11) * 0.5
b(i, j) = mod(i * 2 + j * 5, 13) * 0.25
ra(i, j) = 0
rb(i, j) = 0
enddo
enddo
do it = 1, steps
do i = 2, n - 1
do j = 2, n - 1
ra(i, j) = 0.25 * (a(i - 1, j) + a(i + 1, j) + a(i, j - 1) + a(i, j + 1))
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
rb(i, j) = 0.25 * (b(i - 1, j) + b(i + 1, j) + b(i, j - 1) + b(i, j + 1))
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
a(i, j) = a(i, j) + 0.5 * (ra(i, j) - a(i, j))
b(i, j) = b(i, j) + 0.5 * (rb(i, j) - b(i, j))
enddo
enddo
enddo
end
`

func main() {
	cfg := gcao.Config{Params: map[string]int{"n": 16, "steps": 3}, Procs: 4}
	c, err := gcao.Compile(src, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("found %d non-local references needing communication:\n", len(c.Entries()))
	for _, e := range c.Entries() {
		fmt.Printf("  %v: %v via %v\n", e, e.SectionAt(c.Analysis, e.Latest.Level()), e.Map)
	}
	fmt.Println()

	for _, s := range []gcao.Strategy{gcao.Vectorize, gcao.EarliestRedundancy, gcao.Combine} {
		placed, err := c.Place(s, nil)
		if err != nil {
			log.Fatal(err)
		}
		cost, err := placed.Estimate(gcao.SP2())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s: %2d messages placed, estimated %.1f ms/run (%.1f ms network)\n",
			s, placed.Messages(), cost.Total()*1e3, cost.Net*1e3)
	}

	// Run the optimized placement on the functional simulator and
	// verify against an independent sequential execution.
	placed, err := c.Place(gcao.Combine, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := placed.Verify(); err != nil {
		log.Fatal(err)
	}
	run, err := placed.Simulate(gcao.SP2(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfunctional simulation ok: %d dynamic messages, %d bytes moved, verified against sequential execution\n",
		run.Ledger.DynMessages, run.Ledger.BytesMoved)
}
