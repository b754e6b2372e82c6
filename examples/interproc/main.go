// Interprocedural walkthrough (§7): a relaxation step factored into a
// subroutine and called on two fields. After inlining, the global
// algorithm combines the two call sites' exchanges into one message
// per direction — optimization across procedure boundaries.
package main

import (
	"fmt"
	"log"

	"gcao"
)

const src = `
routine main(n, steps)
real a(n, n), b(n, n), ra(n, n), rb(n, n)
!hpf$ distribute (block, block) :: a, b, ra, rb
do i = 1, n
do j = 1, n
a(i, j) = i + 2 * j
b(i, j) = 3 * i - j
ra(i, j) = 0
rb(i, j) = 0
enddo
enddo
do it = 1, steps
call relaxstep(a, ra, n)
call relaxstep(b, rb, n)
do i = 2, n - 1
do j = 2, n - 1
a(i, j) = a(i, j) + 0.1 * ra(i, j)
b(i, j) = b(i, j) + 0.1 * rb(i, j)
enddo
enddo
enddo
end

routine relaxstep(q, r, n)
real q(n, n), r(n, n)
do i = 2, n - 1
do j = 2, n - 1
r(i, j) = q(i - 1, j) + q(i + 1, j) + q(i, j - 1) + q(i, j + 1) - 4 * q(i, j)
enddo
enddo
end
`

func main() {
	cfg := gcao.Config{Params: map[string]int{"n": 16, "steps": 2}, Procs: 4}
	c, err := gcao.CompileProgram(src, "main", cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range []gcao.Strategy{gcao.Vectorize, gcao.Combine} {
		placed, err := c.Place(s, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s: %d exchanges per timestep\n", s, placed.Messages())
	}
	placed, err := c.Place(gcao.Combine, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nannotated listing (note each exchange carries both a and b):")
	fmt.Print(placed.Program().Listing())

	// Verify against the sequential program: the same inlined routine
	// compiled for one processor.
	if err := placed.Verify(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfunctional simulation at P=4 verified against sequential execution")
}
