// hpfc is the compiler driver: it parses a mini-HPF routine, runs the
// global communication analysis, and reports the chosen communication
// placement under one of the three strategies — the human-readable
// trace the paper's prototype emitted for hand compilation (Fig. 6).
//
// Usage:
//
//	hpfc -version comb -procs 16 -param n=256 -param steps=10 file.hpf
//
// The positional argument is a source file; when no such file exists
// it is resolved as a built-in benchmark name ("shallow",
// "examples/shallow", "trimesh/gauss"), with parameters defaulted
// from the benchmark's standard binding.
//
// With -dump the scalarized program, CFG, and per-entry analysis
// (earliest / latest / candidate positions) are printed too. With
// -explain every communication entry's placement decision is printed
// (the machine-readable Fig. 6 annotation); -trace-out and
// -metrics-out export the pipeline observability data as a Chrome
// trace_event file and a metrics/decision-log JSON document.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"gcao"
	"gcao/internal/ast"
	"gcao/internal/bench"
	"gcao/internal/codegen"
	"gcao/internal/core"
	"gcao/internal/obs"
)

type paramList map[string]int

func (p paramList) String() string {
	// Sorted name=value pairs: printing the Go map directly would leak
	// random key order into the output.
	names := make([]string, 0, len(p))
	for name := range p {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s=%d", name, p[name])
	}
	return strings.Join(parts, " ")
}

func (p paramList) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=value, got %q", s)
	}
	v, err := strconv.Atoi(val)
	if err != nil {
		return err
	}
	p[strings.ToLower(strings.TrimSpace(name))] = v
	return nil
}

// loadSource resolves the positional argument: an on-disk source file,
// or a built-in benchmark name such as "shallow", "examples/shallow"
// or "trimesh/gauss". For a benchmark, missing parameters are filled
// in from the benchmark's standard binding at size n (the -param n
// value or the benchmark default).
func loadSource(arg string, params paramList) (string, error) {
	if src, err := os.ReadFile(arg); err == nil {
		return string(src), nil
	}
	parts := strings.Split(strings.Trim(arg, "/"), "/")
	if parts[0] == "examples" {
		parts = parts[1:]
	}
	if len(parts) == 0 || parts[0] == "" {
		return "", fmt.Errorf("no source file or benchmark %q", arg)
	}
	var pr *bench.Program
	if len(parts) >= 2 {
		p, err := bench.ByName(parts[0], parts[1])
		if err != nil {
			return "", err
		}
		pr = p
	} else {
		for _, p := range bench.Programs() {
			if p.Bench == parts[0] {
				pr = p
				break
			}
		}
		if pr == nil {
			return "", fmt.Errorf("no source file or benchmark %q", arg)
		}
	}
	n := pr.DefaultN
	if v, ok := params["n"]; ok {
		n = v
	}
	for name, v := range pr.Params(n) {
		if _, ok := params[name]; !ok {
			params[name] = v
		}
	}
	return pr.Source, nil
}

func main() {
	params := paramList{}
	version := flag.String("version", "comb", "placement strategy: orig, nored, comb")
	procs := flag.Int("procs", 4, "processor count (overridden by a PROCESSORS directive)")
	dump := flag.Bool("dump", false, "dump scalarized program and per-entry analysis")
	annotate := flag.Bool("annotate", false, "emit the annotated SPMD listing (the paper's Fig. 6 trace dump)")
	mainName := flag.String("main", "", "main routine of a multi-routine file; calls are inlined (interprocedural analysis)")
	traceOut := flag.String("trace-out", "", "write pipeline phase spans as a Chrome trace_event JSON file")
	metricsOut := flag.String("metrics-out", "", "write counters, gauges and the placement decision log as JSON")
	explain := flag.Bool("explain", false, "print the per-entry placement decision log")
	flag.Var(params, "param", "routine parameter binding name=value (repeatable)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hpfc [flags] file.hpf")
		flag.Usage()
		os.Exit(2)
	}
	var rec *obs.Recorder
	if *traceOut != "" || *metricsOut != "" || *explain {
		rec = obs.New()
	}
	src, err := loadSource(flag.Arg(0), params)
	if err != nil {
		fatal(err)
	}

	var strat gcao.Strategy
	switch *version {
	case "orig":
		strat = gcao.Vectorize
	case "nored":
		strat = gcao.EarliestRedundancy
	case "comb":
		strat = gcao.Combine
	default:
		fatal(fmt.Errorf("unknown -version %q (want orig, nored, comb)", *version))
	}

	c, err := gcao.CompileProgram(src, *mainName, gcao.Config{Params: params, Procs: *procs, Obs: rec})
	if err != nil {
		fatal(err)
	}
	a := c.Analysis

	if *dump {
		fmt.Println("== scalarized program ==")
		for _, s := range a.Scal.Body {
			fmt.Println(ast.StmtString(s))
		}
		fmt.Println("\n== control flow graph ==")
		fmt.Print(a.G.String())
		fmt.Println("== communication entries ==")
		for _, e := range a.CommEntries() {
			fmt.Printf("%v\n  section(latest) = %v\n  mapping  = %v\n  earliest = %v  latest = %v  candidates = %d\n",
				e, e.SectionAt(a, e.Latest.Level()), e.Map, e.Earliest, e.Latest, len(e.Candidates))
		}
		fmt.Println()
	}

	placed, err := c.Place(strat)
	if err != nil {
		fatal(err)
	}
	if *annotate {
		end := rec.Start("codegen")
		listing := codegen.Emit(placed.Result)
		end()
		fmt.Print(listing)
	} else {
		report(a, placed, strat)
	}
	if *explain {
		fmt.Println("== placement decisions ==")
		for _, d := range rec.Decisions() {
			fmt.Println(d.Format())
		}
	}
	writeObs(rec, *traceOut, *metricsOut)
}

func report(a *core.Analysis, placed *gcao.Placed, strat gcao.Strategy) {
	fmt.Printf("routine %q on %s: %d communication operations under %s\n",
		a.Unit.Routine.Name, a.Unit.Grid, placed.Messages(), strat)
	counts := placed.MessageCounts()
	var kinds []core.CommKind
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Printf("  %-6s %d\n", k, counts[k])
	}
	fmt.Println()
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
		fmt.Printf("COMM %-5s at %-18s {%s}", g.Kind, g.Pos, strings.Join(names, ", "))
		if len(g.Attached) > 0 {
			fmt.Printf("  (+%d redundant eliminated)", len(g.Attached))
		}
		fmt.Println()
	}
}

// writeObs exports the recorder to the requested files (shared by the
// cmd tools).
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
	fmt.Fprintln(os.Stderr, "hpfc:", err)
	os.Exit(1)
}
