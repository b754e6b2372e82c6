package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gcao"
	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/native"
	"gcao/internal/obs"
)

// fig10a regenerates the compile-time static message-count table of
// Fig. 10(a): for every benchmark routine, the number of communication
// call sites under the three compiler versions (orig / nored / comb),
// side by side with the numbers published in the paper.
func fig10a(fs *flag.FlagSet, args []string) {
	var o obsFlags
	o.register(fs)
	procs := fs.Int("procs", 25, "processor count (the paper used P=25 on the SP2)")
	n := fs.Int("n", 0, "problem size override (0: per-benchmark default)")
	fs.Parse(args)

	rec := o.recorder()
	rows, err := bench.Fig10aTable(*n, *procs, rec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Fig. 10(a): static communication call sites per routine (P=%d)\n\n", *procs)
	bench.WriteFig10a(os.Stdout, rows)
	o.finish(rec, true)
}

// charts regenerates the normalized running-time charts of
// Fig. 10(b)–(f): for each chart's problem-size sweep it compiles the
// benchmark, places communication under the three compiler versions,
// and prints the estimated normalized CPU/network bars on the chart's
// machine model.
func charts(fs *flag.FlagSet, args []string) {
	var o obsFlags
	o.register(fs)
	fig := fs.String("fig", "all", "chart to run: b, c, d, e, f, or all")
	fs.Parse(args)

	rec := o.recorder()
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
	o.finish(rec, false)
}

// verify checks every benchmark's functional instance under comb at P=4
// bit for bit against the sequential program (Placed.Verify), then runs
// it on the BSP simulator for the traffic it reports; with -backend
// native it also runs the placement as real goroutines and checks that
// bit for bit against the simulator run. -blame k prints each instance's
// top-k communication blame table (placement sites ranked by their
// critical-path cost under the machine's BSP model).
func verify(fs *flag.FlagSet, args []string) {
	var o obsFlags
	o.register(fs)
	blame := fs.Int("blame", 0, "print each instance's top-k communication blame table (0: off)")
	backend := fs.String("backend", "sim", "execution backend: sim or native")
	fs.Parse(args)
	if *backend != "sim" && *backend != "native" {
		fatal(fmt.Errorf("unknown -backend %q (want sim or native)", *backend))
	}
	rec := o.recorder()
	if rec == nil && *blame > 0 {
		rec = obs.New()
	}

	const procs = 4
	fmt.Printf("functional verification (small instances, P=%d):\n", procs)
	m := machine.SP2()
	for _, pr := range bench.Programs() {
		name := pr.Bench + "/" + pr.Routine
		placed := placeBench(pr, functionalN(pr), procs, gcao.Combine, rec)
		if err := placed.Verify(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		run, err := placed.Simulate(m, rec)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Printf("  %-18s ok (%d dynamic messages, %d barriers)\n", name, run.Ledger.DynMessages, run.Ledger.Barriers)
		if *backend == "native" {
			nat, err := placed.RunNative(nil)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			if err := native.Diff(nat, run); err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			fmt.Printf("  %-18s native ok, bit-identical to simulator (%d messages, %d barriers, %d wire bytes, %d hops)\n",
				name, nat.Stats.Messages, nat.Stats.Barriers, nat.Stats.WireBytes, nat.Stats.Hops)
		}
		if *blame > 0 {
			// The recorder keeps only the latest run's attribution, so
			// the blame table prints per instance, right after its
			// parallel simulation.
			attrRun := rec.Attribution()
			if attrRun == nil {
				fatal(fmt.Errorf("%s: no attribution record", name))
			}
			fmt.Print(gcao.AnalyzeAttribution(attrRun, gcao.AttrCostModelFor(m)).FormatBlame(*blame))
		}
	}
	o.finish(rec, false)
}

// fig5 regenerates the network and buffer-copy profiling study of
// Fig. 5: for the SP2/MPL and NOW/MPICH cost models it prints bcopy
// bandwidth, sender injection bandwidth and end-to-end receive
// bandwidth as functions of size (log-spaced from 16 B to 4 MB, as in
// the paper's x-axis), plus the derived facts the placement algorithm
// relies on — the half-power point and the combining threshold.
func fig5(fs *flag.FlagSet, args []string) {
	machineFlag := fs.String("machine", "all", "machine to probe: sp2, now, or all")
	fs.Parse(args)

	var machines []machine.Machine
	switch strings.ToLower(*machineFlag) {
	case "sp2":
		machines = []machine.Machine{machine.SP2()}
	case "now":
		machines = []machine.Machine{machine.NOW()}
	case "all":
		machines = []machine.Machine{machine.SP2(), machine.NOW()}
	default:
		fatal(fmt.Errorf("unknown -machine %q (want sp2, now or all)", *machineFlag))
	}
	for _, m := range machines {
		fmt.Printf("== %s ==\n", m.Name)
		fmt.Printf("%10s %14s %14s %14s\n", "bytes", "bcopy MB/s", "inject MB/s", "recv MB/s")
		for bytes := 16; bytes <= 4<<20; bytes *= 4 {
			recv := m.NetworkBandwidth(bytes) / 1e6
			fmt.Printf("%10d %14.1f %14.1f %14.1f  %s\n", bytes,
				m.BcopyBandwidth(bytes)/1e6, m.InjectBandwidth(bytes)/1e6, recv, strings.Repeat("*", int(recv/2+0.5)))
		}
		fmt.Printf("half-power point: %d bytes (startup amortized well below the %d KB cache)\n",
			m.HalfPowerPoint(), m.CacheBytes>>10)
		fmt.Printf("combining threshold: %d KB\n\n", core.DefaultCombineThresholdBytes>>10)
	}
}
