// Syntax sensitivity (Fig. 3): three semantically equivalent programs.
// Earliest placement can combine the messages for a and b only when
// their definitions share a loop (the hand-coded form); the global
// algorithm produces one combined message for all three forms.
package main

import (
	"fmt"
	"log"

	"gcao"
)

var forms = []struct {
	name string
	src  string
}{
	{"F90 source", `
routine f90(n)
real a(n), b(n), c(n)
!hpf$ processors p(4)
!hpf$ distribute (block) :: a, b, c
a(1:n) = 3
b(1:n) = 4
c(2:n) = a(1:n-1) + b(1:n-1)
end
`},
	{"scalarized", `
routine scal(n)
real a(n), b(n), c(n)
!hpf$ processors p(4)
!hpf$ distribute (block) :: a, b, c
do i = 1, n
a(i) = 3
enddo
do i = 1, n
b(i) = 4
enddo
do i = 2, n
c(i) = a(i - 1) + b(i - 1)
enddo
end
`},
	{"hand-coded F77", `
routine hand(n)
real a(n), b(n), c(n)
!hpf$ processors p(4)
!hpf$ distribute (block) :: a, b, c
do i = 1, n
a(i) = 3
b(i) = 4
enddo
do i = 2, n
c(i) = a(i - 1) + b(i - 1)
enddo
end
`},
}

func main() {
	fmt.Println("Fig. 3: three equivalent programs, messages placed per strategy")
	fmt.Printf("%-15s %18s %18s\n", "form", "earliest placement", "global algorithm")
	for _, f := range forms {
		c, err := gcao.Compile(f.src, gcao.Config{Params: map[string]int{"n": 64}, Procs: 4})
		if err != nil {
			log.Fatal(err)
		}
		earliest, err := c.Place(gcao.EarliestRedundancy, nil)
		if err != nil {
			log.Fatal(err)
		}
		// Count distinct placement points: co-located messages could be
		// combined by a peephole pass; separated ones cannot.
		points := map[string]bool{}
		for _, g := range earliest.Result.Groups {
			points[g.Pos.String()] = true
		}
		comb, err := c.Place(gcao.Combine, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-15s %12d points %12d message(s)\n", f.name, len(points), comb.Messages())
		if err := comb.Verify(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nThe global algorithm is insensitive to the surface syntax: it")
	fmt.Println("evaluates all candidate placements and always finds the shared one.")
	fmt.Println("\nfunctional simulation of all three forms at P=4 verified against sequential execution")
}
