// Shallow-water walkthrough: compiles the NCAR shallow benchmark,
// shows how the global algorithm schedules its communication (the
// Fig. 2 story: 8 exchanges per timestep instead of 14 or 18), and
// compares estimated running times on both machines.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"gcao"
	"gcao/internal/bench"
)

func main() {
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		log.Fatal(err)
	}
	cfg := gcao.Config{Params: pr.Params(64), Procs: 16}
	c, err := gcao.Compile(pr.Source, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("NCAR shallow water, n=64, P=16")
	for _, s := range []gcao.Strategy{gcao.Vectorize, gcao.EarliestRedundancy, gcao.Combine} {
		placed, err := c.Place(s, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-7s: %d exchanges per timestep\n", s, placed.Messages())
	}

	placed, err := c.Place(gcao.Combine, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncombined schedule (one line per runtime call):")
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
		fmt.Printf("  COMM %-22v {%s}\n", g.Map, strings.Join(names, ","))
	}

	fmt.Println("\nestimated normalized running time (orig = 1.0):")
	for _, mname := range []string{"SP2", "NOW"} {
		m, err := gcao.MachineByName(mname)
		if err != nil {
			log.Fatal(err)
		}
		bars, err := c.CompareStrategies(m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s:", mname)
		for _, b := range bars {
			fmt.Printf("  %s=%.3f (net %.3f)", b.Version, b.CPU+b.Net, b.Net)
		}
		fmt.Println()
	}

	// Small functional run with verification.
	small := gcao.Config{Params: pr.Params(8), Procs: 4}
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
	fmt.Println("\nfunctional simulation at n=8, P=4 verified against sequential execution")
}
