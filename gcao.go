// Package gcao is a from-scratch reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996): an
// HPF-style compiler pass that chooses communication placements for
// all non-local array references of a procedure globally and
// interdependently, eliminating redundancy and combining messages in a
// unified framework, together with the substrates the paper's
// evaluation needs — a mini-HPF front end, array SSA and dependence
// analysis, Available Section Descriptors, and a simulated
// distributed-memory machine with IBM SP2 and Berkeley NOW cost
// models.
//
// The typical flow is:
//
//	c, err := gcao.Compile(source, gcao.Config{Params: map[string]int{"n": 256}, Procs: 16})
//	placed, err := c.Place(gcao.Combine, nil)     // the paper's algorithm
//	baseline, err := c.Place(gcao.Vectorize, nil) // the "orig" baseline
//	run, err := placed.Simulate(gcao.SP2(), nil)  // functional simulation
//	err = placed.Verify()                         // against the sequential program
//	cost, err := placed.Estimate(gcao.SP2())      // analytic cost model
//
// Compile parses and analyzes one routine; Place runs a placement
// strategy; Simulate executes the program on a bulk-synchronous
// simulator, on the compilation's processors, that verifies every remote
// access was actually communicated; Verify checks the final state against
// the same routine run on one processor; Estimate computes per-processor
// CPU/network time without touching data, for paper-scale problem sizes.
//
// Every operation records into the recorder it is given — Config.Obs for
// a compile, the last argument of Place, Simulate and RunNative — and
// nothing else: a Compilation and a Placed hold none, so a recorder sees
// exactly its own call's telemetry however many callers share them. A nil
// recorder records nothing.
package gcao

import (
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sync"

	"gcao/internal/ast"
	"gcao/internal/core"
	"gcao/internal/inline"
	"gcao/internal/machine"
	"gcao/internal/native"
	"gcao/internal/obs"
	"gcao/internal/obs/attr"
	"gcao/internal/parser"
	"gcao/internal/plan"
	"gcao/internal/runtime"
	"gcao/internal/sem"
	"gcao/internal/spmd"
)

// Recorder re-exports the observability recorder: hand one to Compile
// (Config.Obs), Place, Simulate or RunNative to capture that call's phase
// spans, placement metrics and per-entry decision log, or its run's
// communication profile. A nil recorder disables observability at zero
// cost.
type Recorder = obs.Recorder

// NewRecorder builds an empty observability recorder.
func NewRecorder() *Recorder { return obs.New() }

// Registry re-exports the process-global metrics registry: a server
// absorbs each request's Recorder into one Registry and serves the
// aggregate in Prometheus text exposition format (cmd/gcaod does
// exactly this).
type Registry = obs.Registry

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// AttrRun re-exports the simulator's cost-attribution record: one
// h-relation Step per superstep, each blaming its traffic to the
// placement site that scheduled it and the originating source
// statements. Simulate fills one on the recorder it is given
// (Recorder.Attribution returns it).
type AttrRun = attr.Run

// AttrCostModel re-exports the BSP cost model attribution reports are
// evaluated under: a superstep moving an h-relation of h bytes costs
// L + g·h seconds.
type AttrCostModel = attr.CostModel

// AttrReport re-exports the analyzed attribution report: per-site
// blame ranking and the communication critical path.
type AttrReport = attr.Report

// AttrCostModelFor derives attribution knobs from a machine model: g
// from its receive bandwidth, L from its per-message overheads plus
// wire latency.
func AttrCostModelFor(m Machine) AttrCostModel { return attr.CostModelFor(m) }

// AnalyzeAttribution computes the per-site blame ranking and the
// communication critical path of a run under the given cost model.
func AnalyzeAttribution(run *AttrRun, model AttrCostModel) *AttrReport {
	return attr.Analyze(run, model)
}

// Logger is the standard library's structured logger; a recorder's
// SetLog attaches one to receive its pipeline events.
type Logger = slog.Logger

// LogLevel is its severity scale.
type LogLevel = slog.Level

// NewLogger builds a logger writing one JSON object a line — time, level,
// msg, then the event's attributes — for events at or above min to w.
func NewLogger(w io.Writer, min LogLevel) *Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: min}))
}

// Strategy selects a communication placement strategy.
type Strategy int

const (
	// Vectorize is the baseline: message vectorization to the
	// outermost possible loop with per-statement coalescing, no
	// redundancy elimination, no combining ("orig" in the paper).
	Vectorize Strategy = iota
	// EarliestRedundancy adds redundancy elimination via earliest
	// placement, the prior state of the art ("nored").
	EarliestRedundancy
	// Combine is the paper's global algorithm ("comb").
	Combine
)

func (s Strategy) String() string { return s.version().String() }

// StrategyByName resolves a strategy from its Fig. 10 column name:
// "orig" (or "vectorize"), "nored" (or "redund"), "comb" (or
// "combine").
func StrategyByName(name string) (Strategy, error) {
	switch name {
	case "orig", "vectorize":
		return Vectorize, nil
	case "nored", "redund":
		return EarliestRedundancy, nil
	case "comb", "combine", "":
		return Combine, nil
	}
	return 0, fmt.Errorf("gcao: unknown strategy %q (want orig, nored or comb)", name)
}

func (s Strategy) version() core.Version {
	switch s {
	case Vectorize:
		return core.VersionOrig
	case EarliestRedundancy:
		return core.VersionRedund
	default:
		return core.VersionCombine
	}
}

// Machine re-exports the platform cost model.
type Machine = machine.Machine

// SP2 returns the IBM SP2 cost model (P=25 in the paper's runs).
func SP2() Machine { return machine.SP2() }

// MachineByName resolves "SP2" or "NOW".
func MachineByName(name string) (Machine, error) { return machine.ByName(name) }

// Config configures compilation.
type Config struct {
	// Params binds the routine's integer parameters (problem sizes,
	// step counts). Every declared parameter must be bound.
	Params map[string]int
	// Procs is the processor count; a PROCESSORS directive in the
	// source takes precedence.
	Procs int
	// Obs, when non-nil, records the compile's pipeline phase spans
	// and analysis counters (and, through its SetLog, its events). The
	// compilation does not keep it: later operations record into the
	// recorder they are given.
	Obs *Recorder
}

// Compilation is an analyzed routine ready for placement.
type Compilation struct {
	// Analysis exposes the full analysis pipeline for inspection:
	// scalarized body, CFG, dominators, SSA, and the communication
	// entries with their earliest/latest/candidate positions.
	Analysis *core.Analysis

	// fingerprint is the content address of the compile inputs, set
	// when the compilation was produced by a Cache; it keys the
	// placement tier so placements of cached analyses are themselves
	// cacheable.
	fingerprint string
}

// Compile parses, semantically analyzes, scalarizes and
// communication-analyzes a mini-HPF routine.
func Compile(source string, cfg Config) (*Compilation, error) {
	return CompileProgram(source, "", cfg)
}

// CompileProgram compiles a multi-routine program: every CALL
// reachable from the named main routine is inlined first (package
// inline), so the global communication analysis — and therefore
// redundancy elimination and message combining — works across
// procedure boundaries, the §7 interprocedural direction. An empty main
// is Compile: the source holds one routine.
func CompileProgram(source, main string, cfg Config) (*Compilation, error) {
	r, err := parseRoutine(source, main, cfg.Obs)
	if err != nil {
		return nil, err
	}
	return compileRoutine(r, nil, cfg)
}

// parseRoutine is the part of a compilation that reads the source text
// alone: the one routine it holds or, when main names one, that routine
// with every call reachable from it inlined.
func parseRoutine(source, main string, rec *Recorder) (*ast.Routine, error) {
	end := rec.Start("parse")
	if main == "" {
		r, err := parser.ParseRoutine(source)
		end()
		return r, err
	}
	prog, err := parser.Parse(source)
	end()
	if err != nil {
		return nil, err
	}
	defer rec.Start("inline")()
	return inline.Flatten(prog, main)
}

// compileRoutine is the one routine-to-compilation function: sem binds the
// parameters, and the routine's skeleton — sk when the caller holds one
// that serves this binding, else built here — is instantiated under them.
func compileRoutine(r *ast.Routine, sk *core.Skeleton, cfg Config) (*Compilation, error) {
	end := cfg.Obs.Start("sem")
	u, err := sem.Analyze(r, cfg.Params, sem.Options{Procs: cfg.Procs})
	end()
	if err != nil {
		return nil, err
	}
	if sk == nil {
		if sk, err = core.NewSkeleton(u, cfg.Obs); err != nil {
			return nil, err
		}
	}
	a, err := sk.Analyze(u, cfg.Obs)
	if err != nil {
		return nil, err
	}
	return &Compilation{Analysis: a}, nil
}

// Entries returns the communication requirements found in the routine
// (excluding diagonal NNC already coalesced into axis exchanges). The
// slice is the analysis's own, shared by every caller: read it only.
func (c *Compilation) Entries() []*core.Entry { return c.Analysis.CommEntries() }

// Place runs a placement strategy; rec, when non-nil, receives the
// placement's span, counters and decision log.
func (c *Compilation) Place(s Strategy, rec *Recorder) (*Placed, error) {
	res, err := c.Analysis.Place(core.Options{Version: s.version(), Obs: rec})
	if err != nil {
		return nil, err
	}
	return &Placed{Compilation: c, Result: res}, nil
}

// Placed is a routine with chosen communication placements. Its first
// execution lowers it, once, to the program every engine of either
// backend runs and the listing prints; prepared engines — memory image,
// frames, channel fabric — idle in one pool per backend: every run method
// takes one there or builds one around the program, and the result's
// Release puts it back, so a caller that runs in a loop pays for a reset
// and a run. The garbage collector reclaims idle engines (an image can be
// tens of megabytes); program and pools go with the Placed, which must
// not be copied. It keeps its analytic cost per machine as well, so a
// placement a cache serves again is estimated once.
type Placed struct {
	Compilation *Compilation
	Result      *core.Result

	lower    sync.Once
	prog     *plan.Program
	sim, nat sync.Pool

	estMu sync.Mutex
	costs []machineCost
}

// machineCost is one memoized Estimate.
type machineCost struct {
	m    Machine
	cost spmd.Cost
}

// Program returns the lowered placement: built by the first caller, immutable.
func (p *Placed) Program() *plan.Program {
	p.lower.Do(func() { p.prog = plan.Lower(p.Result) })
	return p.prog
}

// Messages returns the number of placed communication operations —
// the static call-site count of Fig. 10(a).
func (p *Placed) Messages() int { return p.Result.TotalMessages() }

// MessageCounts returns placed operation counts by communication kind.
func (p *Placed) MessageCounts() map[core.CommKind]int { return p.Result.Counts() }

// Simulate executes the program on the functional bulk-synchronous
// simulator under the machine model, on the processors of the
// compilation's grid. The run fails if any processor reads remote data
// the placement failed to deliver. rec, when non-nil, receives the run's
// span, counters, communication profile and superstep attribution. The
// result's Mem and Scalars are valid until its Release, which a caller
// done with them calls to let the next run reuse the engine.
func (p *Placed) Simulate(m Machine, rec *Recorder) (*spmd.RunResult, error) {
	return spmd.RunPooled(&p.sim, p.Program(), m, rec)
}

// Estimate computes the analytic per-processor cost under the machine
// model: walked by the first caller for each machine, kept after.
func (p *Placed) Estimate(m Machine) (spmd.Cost, error) {
	p.estMu.Lock()
	defer p.estMu.Unlock()
	for _, c := range p.costs {
		if c.m == m {
			return c.cost, nil
		}
	}
	cost, err := spmd.Estimate(p.Result, m)
	if err == nil {
		p.costs = append(p.costs, machineCost{m, cost})
	}
	return cost, err
}

// RunNative executes the placed program for real: one goroutine per
// logical processor of the compilation's grid, each owning its block of
// every distributed array, with the placed communication groups realized
// as channel transfers. Results are bit-identical to Simulate by
// construction; VerifyNative enforces it. A non-nil rec arms the runtime
// profiler: every processor records its communication events into a ring
// its engine keeps, and the result (and rec) carry the folded
// NativeProfile — per-superstep timelines, wait accounting, compute skew.
// A nil rec runs unprofiled. The result's Mem and Scalars are valid until
// its Release, as Simulate's.
func (p *Placed) RunNative(rec *Recorder) (*native.RunResult, error) {
	return native.RunPooled(&p.nat, p.Program(), rec)
}

// VerifyNative runs the placement on both backends — the BSP simulator
// and the native goroutine engine — unprofiled, and compares final
// distributed memory, validity and scalar state bit for bit
// (native.Diff). The machine model prices only the simulator's ledger,
// never a value, so the check takes none.
func (p *Placed) VerifyNative() error {
	sim, err := p.Simulate(machine.SP2(), nil)
	if err != nil {
		return fmt.Errorf("gcao: simulator reference failed: %w", err)
	}
	defer sim.Release()
	nat, err := p.RunNative(nil)
	if err != nil {
		return fmt.Errorf("gcao: native run failed: %w", err)
	}
	defer nat.Release()
	return native.Diff(nat, sim)
}

// CompareStrategies compiles nothing new: it places the routine under
// all three strategies and returns their normalized cost bars, the
// quantity plotted in Fig. 10(b)–(f).
func (c *Compilation) CompareStrategies(m Machine) ([]spmd.Bar, error) {
	return spmd.EstimateVersions(c.Analysis, m)
}

// Verify runs the placed program on the simulator and compares its final
// state bit for bit (runtime.CompareState) — every array's canonical
// image and the scalars both hold — with the sequential program's: the
// placement's own routine, inlined calls and all, under its own parameter
// binding, compiled again for one processor (its PROCESSORS directive
// dropped) and simulated there. Both runs are unprofiled.
func (p *Placed) Verify() error {
	m := machine.SP2()
	run, err := p.Simulate(m, nil)
	if err != nil {
		return err
	}
	defer run.Release()
	u := p.Result.Analysis.Unit
	r := *u.Routine
	r.Dirs = slices.DeleteFunc(slices.Clone(r.Dirs), func(d ast.Dir) bool {
		_, procs := d.(*ast.ProcessorsDir)
		return procs
	})
	seqC, err := compileRoutine(&r, nil, Config{Params: u.Params, Procs: 1})
	if err != nil {
		return fmt.Errorf("gcao: sequential reference compile: %w", err)
	}
	if n := seqC.Analysis.Unit.Grid.NumProcs(); n != 1 {
		return fmt.Errorf("gcao: sequential reference compiled for %d processors", n)
	}
	seqP, err := seqC.Place(Combine, nil)
	if err != nil {
		return err
	}
	seq, err := seqP.Simulate(m, nil)
	if err != nil {
		return fmt.Errorf("gcao: sequential reference: %w", err)
	}
	if err := runtime.CompareState(run.Mem, seq.Mem, run.Scalars, seq.Scalars); err != nil {
		return fmt.Errorf("gcao: parallel vs sequential: %w", err)
	}
	return nil
}
