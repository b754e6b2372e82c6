// runbench regenerates the normalized running-time charts of
// Fig. 10(b)–(f): for each chart's problem-size sweep it compiles the
// benchmark, places communication under the three compiler versions,
// and prints the estimated normalized CPU/network bars on the chart's
// machine model. With -functional it additionally executes a small
// instance on the functional simulator and verifies numerical
// equivalence against a sequential run.
//
// -trace-out / -metrics-out export the observability data of the run
// (per-chart phase spans; for -functional also the placement decision
// logs and the simulator communication profile); -explain prints the
// functional placements' decision logs; -blame k prints each
// functional instance's top-k communication blame table (placement
// sites ranked by their critical-path cost under the machine's BSP
// model).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/native"
	"gcao/internal/obs"
	"gcao/internal/obs/attr"
	"gcao/internal/spmd"
)

func main() {
	fig := flag.String("fig", "all", "chart to run: b, c, d, e, f, or all")
	functional := flag.Bool("functional", false, "also run a small functional simulation with verification")
	traceOut := flag.String("trace-out", "", "write phase spans as a Chrome trace_event JSON file")
	metricsOut := flag.String("metrics-out", "", "write counters, decision logs and the simulator profile as JSON")
	explain := flag.Bool("explain", false, "print the functional placements' decision logs")
	blame := flag.Int("blame", 0, "with -functional: print each instance's top-k communication blame table (0: off)")
	backend := flag.String("backend", "sim", "execution backend for -functional: sim or native")
	flag.Parse()

	if *backend != "sim" && *backend != "native" {
		fatal(fmt.Errorf("unknown -backend %q (want sim or native)", *backend))
	}

	var rec *obs.Recorder
	if *traceOut != "" || *metricsOut != "" || *explain || *blame > 0 {
		rec = obs.New()
	}

	end := rec.Start("charts")
	for _, spec := range bench.ChartSpecs() {
		if *fig != "all" && !strings.EqualFold(*fig, spec.ID) {
			continue
		}
		c, err := bench.RunChart(spec)
		if err != nil {
			fatal(err)
		}
		bench.WriteChart(os.Stdout, c)
		for i, n := range c.Sizes {
			fmt.Printf("  n=%-5d network-cost ratio comb/orig = %.2f (paper reports ~1/2 to 1/3)\n", n, c.CommRatio[i])
		}
		fmt.Println()
	}
	end()

	if *functional {
		fmt.Println("functional verification (small instances, P=4):")
		m := machine.SP2()
		for _, pr := range bench.Programs() {
			n := 6
			if pr.Bench == "shallow" || pr.Bench == "trimesh" {
				n = 8
			}
			a, err := pr.Compile(n, 4)
			if err != nil {
				fatal(err)
			}
			a.Obs = rec
			res, err := a.Place(core.Options{Version: core.VersionCombine})
			if err != nil {
				fatal(err)
			}
			run, err := spmd.Run(res, m, 4)
			if err != nil {
				fatal(fmt.Errorf("%s/%s: %w", pr.Bench, pr.Routine, err))
			}
			seqA, err := pr.Compile(n, 1)
			if err != nil {
				fatal(err)
			}
			seqRes, err := seqA.Place(core.Options{Version: core.VersionCombine})
			if err != nil {
				fatal(err)
			}
			seq, err := spmd.Run(seqRes, m, 1)
			if err != nil {
				fatal(err)
			}
			if err := spmd.VerifyAgainstSequential(run, seq); err != nil {
				fatal(fmt.Errorf("%s/%s: %w", pr.Bench, pr.Routine, err))
			}
			fmt.Printf("  %-18s ok (%d dynamic messages, %d barriers)\n",
				pr.Bench+"/"+pr.Routine, run.Ledger.DynMessages, run.Ledger.Barriers)
			if *backend == "native" {
				if err := native.VerifyAgainstSimulator(res, m, 4); err != nil {
					fatal(fmt.Errorf("%s/%s: %w", pr.Bench, pr.Routine, err))
				}
				nat, err := native.Run(res, 4)
				if err != nil {
					fatal(fmt.Errorf("%s/%s: %w", pr.Bench, pr.Routine, err))
				}
				fmt.Printf("  %-18s native ok, bit-identical to simulator (%d messages, %d barriers, %d wire bytes, %d hops)\n",
					pr.Bench+"/"+pr.Routine, nat.Stats.Messages, nat.Stats.Barriers, nat.Stats.WireBytes, nat.Stats.Hops)
			}
			if *blame > 0 {
				// The recorder keeps only the latest run's attribution,
				// so the blame table prints per instance, right after
				// its parallel simulation.
				attrRun := rec.Attribution()
				if attrRun == nil {
					fatal(fmt.Errorf("%s/%s: no attribution record", pr.Bench, pr.Routine))
				}
				model := attr.CostModel{GSecPerByte: m.PerByte, LSec: m.SendOverhead + m.RecvOverhead + m.Latency}
				fmt.Print(attr.Analyze(attrRun, model).FormatBlame(*blame))
			}
		}
		if *explain {
			fmt.Println("\n== placement decisions (functional instances) ==")
			for _, d := range rec.Decisions() {
				fmt.Println(d.Format())
			}
		}
	}
	writeObs(rec, *traceOut, *metricsOut)
}

func writeObs(rec *obs.Recorder, traceOut, metricsOut string) {
	if rec == nil {
		return
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteMetrics(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "runbench:", err)
	os.Exit(1)
}
