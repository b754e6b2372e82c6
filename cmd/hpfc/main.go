// hpfc is the command-line front end of the reproduction: the compiler
// driver, and one subcommand per artefact of the paper's evaluation.
//
//	hpfc [flags] file.hpf   compile one routine and report its placement (Fig. 6)
//	hpfc fig10a             static communication call sites per routine (Fig. 10a)
//	hpfc charts             normalized running-time bars (Fig. 10b–f)
//	hpfc verify             execute small instances and check them against a sequential run
//	hpfc fig5               network and buffer-copy bandwidth curves (Fig. 5)
//	hpfc profile            one simulated (and native) run's communication profile
//
// The compiler driver parses a mini-HPF routine, runs the global
// communication analysis, and reports the chosen communication
// placement under one of the three strategies — the human-readable
// trace the paper's prototype emitted for hand compilation:
//
//	hpfc -version comb -procs 16 -param n=256 -param steps=10 file.hpf
//
// The positional argument is a source file; when no such file exists
// it is resolved as a built-in benchmark name ("shallow",
// "examples/shallow", "trimesh/gauss"), with parameters defaulted
// from the benchmark's standard binding. With -dump the scalarized
// program, CFG, and per-entry analysis (earliest / latest / candidate
// positions) are printed too; -annotate emits the annotated SPMD listing.
//
// The driver and every subcommand that compiles take the same
// observability flags: -explain prints every communication entry's
// placement decision (the machine-readable Fig. 6 annotation);
// -trace-out and -metrics-out export the run's spans as a Chrome
// trace_event file and its counters, decision log and profiles as a
// JSON document. `hpfc <subcommand> -h` lists a subcommand's flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"gcao"
	"gcao/internal/ast"
	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/obs"
)

// subcommands maps the first argument onto what it runs; anything else
// is the compiler driver's.
var subcommands = map[string]func(fs *flag.FlagSet, args []string){
	"fig10a":  fig10a,
	"charts":  charts,
	"verify":  verify,
	"fig5":    fig5,
	"profile": profile,
}

func main() {
	if len(os.Args) > 1 {
		if run, ok := subcommands[os.Args[1]]; ok {
			run(flag.NewFlagSet("hpfc "+os.Args[1], flag.ExitOnError), os.Args[2:])
			return
		}
	}
	compile(flag.NewFlagSet("hpfc", flag.ExitOnError), os.Args[1:])
}

// obsFlags are the observability flags the driver and the compiling
// subcommands share.
type obsFlags struct {
	traceOut, metricsOut string
	explain              bool
}

func (o *obsFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&o.traceOut, "trace-out", "", "write phase spans (and simulator/native lanes) as a Chrome trace_event JSON file")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write counters, gauges, the placement decision log and run profiles as JSON")
	fs.BoolVar(&o.explain, "explain", false, "print the per-entry placement decision log")
}

// recorder returns a recorder when any of the flags asks for what one
// collects, nil (a no-op everywhere) otherwise.
func (o *obsFlags) recorder() *obs.Recorder {
	if o.traceOut == "" && o.metricsOut == "" && !o.explain {
		return nil
	}
	return obs.New()
}

// finish prints the decision log under -explain — each line prefixed
// with its compiler version when the run placed several — and writes the
// -trace-out and -metrics-out files.
func (o *obsFlags) finish(rec *obs.Recorder, perVersion bool) {
	if o.explain {
		fmt.Println("== placement decisions ==")
		for _, d := range rec.Decisions() {
			if perVersion {
				fmt.Printf("%-6s ", d.Version)
			}
			fmt.Println(d.Format())
		}
	}
	writeObs(o.traceOut, rec.WriteTrace)
	writeObs(o.metricsOut, rec.WriteMetrics)
}

// writeObs exports one view of the recorder to path ("": not asked for).
func writeObs(path string, write func(w io.Writer) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// strategy resolves a -version flag.
func strategy(name string) gcao.Strategy {
	s, err := gcao.StrategyByName(name)
	if err != nil {
		fatal(err)
	}
	return s
}

// placeBench compiles a benchmark routine's source at size n on procs
// processors, observed by rec (nil: not observed), and places it under s.
func placeBench(pr *bench.Program, n, procs int, s gcao.Strategy, rec *obs.Recorder) *gcao.Placed {
	c, err := gcao.Compile(pr.Source, gcao.Config{Params: pr.Params(n), Procs: procs, Obs: rec})
	if err != nil {
		fatal(fmt.Errorf("bench %s/%s: %w", pr.Bench, pr.Routine, err))
	}
	placed, err := c.Place(s, rec)
	if err != nil {
		fatal(err)
	}
	return placed
}

// functionalN is the size of a benchmark's functional instance: the
// simulator executes elementwise, so verify and profile default to an
// instance small enough to run in a moment that still exercises every
// communication pattern of its routine.
func functionalN(pr *bench.Program) int {
	if pr.Bench == "shallow" || pr.Bench == "trimesh" {
		return 8
	}
	return 6
}

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

// program resolves a benchmark routine by name; an empty routine is the
// benchmark's first.
func program(benchName, routine string) (*bench.Program, error) {
	if routine != "" {
		return bench.ByName(benchName, routine)
	}
	for _, p := range bench.Programs() {
		if p.Bench == benchName {
			return p, nil
		}
	}
	return nil, fmt.Errorf("unknown benchmark %q", benchName)
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
	parts := strings.Split(strings.TrimPrefix(strings.Trim(arg, "/"), "examples/"), "/")
	pr, err := program(parts[0], strings.Join(parts[1:], "/"))
	if err != nil {
		return "", fmt.Errorf("%q is neither a source file nor a benchmark: %w", arg, err)
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

// compile is the compiler driver: `hpfc [flags] file.hpf`.
func compile(fs *flag.FlagSet, args []string) {
	params := paramList{}
	var o obsFlags
	o.register(fs)
	version := fs.String("version", "comb", "placement strategy: orig, nored, comb")
	procs := fs.Int("procs", 4, "processor count (overridden by a PROCESSORS directive)")
	dump := fs.Bool("dump", false, "dump scalarized program and per-entry analysis")
	annotate := fs.Bool("annotate", false, "emit the annotated SPMD listing (the paper's Fig. 6 trace dump)")
	mainName := fs.String("main", "", "main routine of a multi-routine file; calls are inlined (interprocedural analysis)")
	fs.Var(params, "param", "routine parameter binding name=value (repeatable)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: hpfc [flags] file.hpf\n       hpfc fig10a|charts|verify|fig5|profile [flags]")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	rec := o.recorder()
	src, err := loadSource(fs.Arg(0), params)
	if err != nil {
		fatal(err)
	}
	strat := strategy(*version)

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

	placed, err := c.Place(strat, rec)
	if err != nil {
		fatal(err)
	}
	if *annotate {
		end := rec.Start("listing")
		listing := placed.Program().Listing()
		end()
		fmt.Print(listing)
	} else {
		report(a, placed, strat)
	}
	o.finish(rec, false)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpfc:", err)
	os.Exit(1)
}
