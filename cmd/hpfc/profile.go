package main

import (
	"flag"
	"fmt"
	"strings"

	"gcao"
	"gcao/internal/machine"
	nprof "gcao/internal/native/prof"
	"gcao/internal/obs"
	"gcao/internal/obs/attr"
)

// shades maps a pair's byte count, normalized to the matrix maximum,
// to a heatmap cell (light → heavy).
var shades = []string{".", "▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"}

// profile runs one benchmark routine on the functional simulator under a
// placement strategy and prints its communication profile: the
// sender→receiver byte matrix as an ASCII heatmap, the per-superstep
// timeline (one barrier-fenced communication group per row), and the
// per-processor compute/communication/idle time split.
//
//	hpfc profile -bench shallow -procs 4 -version comb
//	hpfc profile -bench trimesh -routine gauss -n 12 -procs 8 -machine NOW
//
// -blame k prints the top-k communication blame table — placement
// sites ranked by the cost they contribute to the communication
// critical path under a BSP cost model (-g/-L override the
// machine-derived per-byte and per-superstep knobs) — and -trace-out
// gains a superstep lane (tid 2) carrying the per-step h-relations.
//
// -native additionally executes the placement on the profiled native
// goroutine backend and prints the measured side: a per-processor
// phase heatmap (where each processor's wall time actually went), the
// compute skew and the straggler ranking. With -trace-out the trace
// gains one lane per native processor (pid 2).
func profile(fs *flag.FlagSet, args []string) {
	var o obsFlags
	o.register(fs)
	benchName := fs.String("bench", "shallow", "benchmark name (shallow, gravity, trimesh, hydflo)")
	routine := fs.String("routine", "", "routine name (default: the benchmark's first routine)")
	n := fs.Int("n", 0, "problem size (0: the benchmark's small functional instance)")
	procs := fs.Int("procs", 4, "processor count")
	version := fs.String("version", "comb", "placement strategy: orig, nored, comb")
	machineName := fs.String("machine", "SP2", "machine cost model: SP2 or NOW")
	blame := fs.Int("blame", 0, "print the top-k communication blame table and critical path (0: off)")
	nativeRun := fs.Bool("native", false, "execute on the profiled native backend and print the measured per-processor profile")
	gFlag := fs.Float64("g", 0, "BSP per-byte cost override for -blame, seconds/byte (0: derive from -machine)")
	lFlag := fs.Float64("L", 0, "BSP per-superstep latency override for -blame, seconds (0: derive from -machine)")
	fs.Parse(args)

	strat := strategy(*version)
	m, err := machine.ByName(*machineName)
	if err != nil {
		fatal(err)
	}
	model := gcao.AttrCostModelFor(m)
	if *gFlag > 0 {
		model.GSecPerByte = *gFlag
	}
	if *lFlag > 0 {
		model.LSec = *lFlag
	}
	pr, err := program(*benchName, *routine)
	if err != nil {
		fatal(err)
	}
	size := *n
	if size == 0 {
		size = functionalN(pr)
	}

	// The profile is read off the recorder, so there always is one.
	rec := obs.New()
	placed := placeBench(pr, size, *procs, strat, rec)
	run, err := placed.Simulate(m, rec)
	if err != nil {
		fatal(err)
	}
	prof, steps := rec.CommProfile(), rec.Attribution()
	if prof == nil || steps == nil {
		fatal(fmt.Errorf("simulator produced no communication profile"))
	}

	fmt.Printf("hpfc profile: %s/%s n=%d P=%d version=%s machine=%s\n",
		pr.Bench, pr.Routine, size, *procs, strat, *machineName)
	fmt.Printf("%d supersteps, %d dynamic messages, %d bytes moved, %d barriers\n\n",
		len(steps.Steps), steps.TotalMessages(), steps.TotalBytes(), run.Ledger.Barriers)

	writeMatrix(prof)
	writeTimeline(steps.Steps)
	writeProcSplit(prof)
	if *blame > 0 {
		writeBlame(steps, model, *blame)
	}
	if *nativeRun {
		out, err := placed.RunNative(rec)
		if err != nil {
			fatal(err)
		}
		writeNativeProfile(out.Profile)
	}
	o.finish(rec, false)
}

// writeMatrix renders the sender→receiver byte matrix as a heatmap,
// one row per sender, shaded by the pair's share of the heaviest pair.
func writeMatrix(prof *obs.CommProfile) {
	fmt.Println("sender→receiver bytes (rows send, columns receive):")
	max := prof.MaxPairBytes()
	if max == 0 {
		fmt.Println("  (no point-to-point traffic)")
		fmt.Println()
		return
	}
	fmt.Print("      ")
	for d := 0; d < prof.Procs; d++ {
		fmt.Printf("%3d", d)
	}
	fmt.Println("   total")
	for s := 0; s < prof.Procs; s++ {
		var rowTotal int64
		fmt.Printf("  p%-3d", s)
		for d := 0; d < prof.Procs; d++ {
			b := prof.PairBytes[s][d]
			rowTotal += b
			if b == 0 {
				fmt.Printf("  %s", shades[0])
				continue
			}
			// Scale nonzero cells over shades[1:] so any traffic is
			// visually distinct from none.
			idx := 1 + int(b*int64(len(shades)-2)/max)
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			fmt.Printf("  %s", shades[idx])
		}
		fmt.Printf("  %7d\n", rowTotal)
	}
	fmt.Printf("  max pair: %d bytes\n\n", max)
}

// writeTimeline prints one row per superstep with a bar scaled to the
// heaviest superstep's byte count.
func writeTimeline(steps []attr.Step) {
	fmt.Println("superstep timeline:")
	var maxBytes int64
	for _, s := range steps {
		if s.Bytes > maxBytes {
			maxBytes = s.Bytes
		}
	}
	fmt.Printf("  %4s  %-6s %-22s %8s %10s  %s\n", "step", "kind", "group", "msgs", "bytes", "bar")
	for _, s := range steps {
		bar := ""
		if maxBytes > 0 {
			bar = strings.Repeat("#", int(s.Bytes*30/maxBytes))
		}
		fmt.Printf("  %4d  %-6s %-22s %8d %10d  %s\n", s.Index, s.Kind, s.Label, s.Messages, s.Bytes, bar)
	}
	fmt.Println()
}

// writeBlame analyzes the run's superstep stream under the BSP cost
// model and prints the top-k bottleneck-site table plus the critical
// path.
func writeBlame(run *attr.Run, model attr.CostModel, k int) {
	rep := attr.Analyze(run, model)
	fmt.Print(rep.FormatBlame(k))
	fmt.Println("critical path chain:")
	for _, cs := range rep.CriticalPath {
		fmt.Printf("  step %4d  %-28s cost %10.4gs  cum %10.4gs\n", cs.Index, cs.Site, cs.CostSec, cs.CumSec)
	}
	fmt.Println()
}

// writeNativeProfile prints the measured side of the run: one heatmap
// row per native processor shading where its wall time went across the
// profiler's phases, the compute skew and the straggler ranking.
func writeNativeProfile(np *nprof.NativeProfile) {
	if np == nil {
		fatal(fmt.Errorf("native backend produced no profile"))
	}
	fmt.Printf("== native run: %d procs, %.6fs wall, %d supersteps ==\n",
		np.Procs, np.WallSeconds, len(np.Steps))
	fmt.Println("per-processor phase split (share of wall time):")
	fmt.Printf("  %-5s %-9s %-9s %-11s %-11s %-9s %10s %10s\n",
		"proc", "compute", "send", "recv-wait", "tree-wait", "sum", "wall(s)", "blocked(s)")
	for _, ps := range np.ProcTotals {
		cell := func(sec float64) string {
			if ps.WallSeconds <= 0 || sec <= 0 {
				return shades[0]
			}
			idx := 1 + int(sec/ps.WallSeconds*float64(len(shades)-2))
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			return shades[idx]
		}
		fmt.Printf("  p%-4d %-9s %-9s %-11s %-11s %-9s %10.6f %10.6f\n",
			ps.Proc, cell(ps.ComputeSeconds), cell(ps.SendSeconds), cell(ps.RecvWaitSeconds),
			cell(ps.TreeWaitSeconds), cell(ps.SumSeconds), ps.WallSeconds, ps.BlockedSeconds)
	}
	fmt.Printf("  skew %.3fx (max/mean compute per superstep)", np.SkewRatio)
	if len(np.Stragglers) > 0 {
		fmt.Printf("  stragglers:")
		for i, p := range np.Stragglers {
			if i == 3 {
				break
			}
			fmt.Printf(" p%d", p)
		}
	}
	if np.Truncated {
		fmt.Printf("  [ring truncated]")
	}
	fmt.Print("\n\n")
}

// writeProcSplit prints each processor's compute/comm/idle seconds.
func writeProcSplit(prof *obs.CommProfile) {
	if len(prof.ComputeSec) == 0 {
		return
	}
	fmt.Println("per-processor time split (seconds):")
	fmt.Printf("  %-5s %12s %12s %12s\n", "proc", "compute", "comm", "idle")
	for p := 0; p < prof.Procs; p++ {
		fmt.Printf("  p%-4d %12.6f %12.6f %12.6f\n", p, prof.ComputeSec[p], prof.CommSec[p], prof.IdleSec[p])
	}
	fmt.Println()
}
