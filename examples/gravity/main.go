// Gravity walkthrough: the Fig. 1 story. The NPAC gravity code does
// four nearest-neighbour exchanges and four global sums for each of
// two fields per plane; the global algorithm combines them into four
// exchanges and two parallel sets of four sums.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"gcao"
	"gcao/internal/bench"
	"gcao/internal/core"
)

func main() {
	pr, err := bench.ByName("gravity", "main")
	if err != nil {
		log.Fatal(err)
	}
	cfg := gcao.Config{Params: pr.Params(16), Procs: 16}
	c, err := gcao.Compile(pr.Source, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("NPAC gravity, n=16, P=16")
	fmt.Printf("%-7s %6s %6s\n", "version", "NNC", "SUM")
	for _, s := range []gcao.Strategy{gcao.Vectorize, gcao.EarliestRedundancy, gcao.Combine} {
		placed, err := c.Place(s, nil)
		if err != nil {
			log.Fatal(err)
		}
		counts := placed.MessageCounts()
		fmt.Printf("%-7s %6d %6d\n", s, counts[core.KindShift], counts[core.KindReduce])
	}

	placed, err := c.Place(gcao.Combine, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncombined schedule per i-plane:")
	for _, g := range placed.Result.Groups {
		arrays := map[string]bool{}
		for _, e := range g.Entries {
			arrays[e.Array] = true
		}
		var names []string
		for n := range arrays {
			names = append(names, n)
		}
		sort.Strings(names)
		switch g.Kind {
		case core.KindReduce:
			fmt.Printf("  GLOBAL-SUM x%d   {%s}\n", len(g.Entries), strings.Join(names, ","))
		default:
			fmt.Printf("  EXCHANGE %-12v {%s}\n", g.Map, strings.Join(names, ","))
		}
	}

	// Verify the combined placement functionally on a small instance.
	small := gcao.Config{Params: pr.Params(6), Procs: 4}
	cs, err := gcao.Compile(pr.Source, small)
	if err != nil {
		log.Fatal(err)
	}
	ps, err := cs.Place(gcao.Combine, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := ps.Verify(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfunctional simulation at n=6, P=4 verified against sequential execution")
}
