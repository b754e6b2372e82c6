package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"time"

	"gcao/internal/bench"
	"gcao/internal/core"
	"gcao/internal/machine"
	"gcao/internal/native"
	"gcao/internal/parser"
	"gcao/internal/plan"
	"gcao/internal/runtime"
	"gcao/internal/sem"
	"gcao/internal/spmd"
)

// execProcs is the processor count of the three execution workloads.
const execProcs = 16

// program is one closed benchmark program at one size: it initialises
// its own arrays, so the workload seed does not alter what it computes.
type program struct {
	bench, routine string
	params         map[string]int
}

var (
	gravity48 = program{"gravity", "main", map[string]int{"nx": 48, "ny": 48, "nz": 48, "steps": 1}}
	shallow16 = program{"shallow", "main", map[string]int{"n": 16, "steps": 40}}
	flux16    = program{"hydflo", "flux", map[string]int{"n": 16, "steps": 4}}
)

// place compiles the program for procs processors and places it.
func (p program) place(procs int, v core.Version) (*core.Result, error) {
	pr, err := bench.ByName(p.bench, p.routine)
	if err != nil {
		return nil, err
	}
	r, err := parser.ParseRoutine(pr.Source)
	if err != nil {
		return nil, err
	}
	u, err := sem.Analyze(r, p.params, sem.Options{Procs: procs})
	if err != nil {
		return nil, err
	}
	a, err := core.NewAnalysis(u)
	if err != nil {
		return nil, err
	}
	return a.Place(core.Options{Version: v})
}

// checksum is the FNV-64a of the final state: every array's owner
// values in declaration and row-major order, bit for bit, then the
// scalars in name order. It walks the owner rows itself instead of
// calling Memory.Canonical so that the check allocates next to nothing
// in the process whose allocations are being counted.
func checksum(mem *runtime.Memory, scalars map[string]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	coords := make([]int, mem.Unit.Grid.Rank())
	for _, name := range mem.Unit.ArrayNames {
		am := mem.View(name)
		lo, hi := am.Arr.Lo, am.Arr.Hi
		idx := append([]int(nil), lo...)
		for k := 0; k >= 0; {
			put(am.Data[am.OwnerInto(idx, coords)][am.Offset(idx)])
			for k = len(idx) - 1; k >= 0; k-- {
				if idx[k]++; idx[k] <= hi[k] {
					break
				}
				idx[k] = lo[k]
			}
		}
	}
	names := make([]string, 0, len(scalars))
	for name := range scalars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		put(scalars[name])
	}
	return h.Sum64()
}

// recorded is one expected/checksums.json entry: the final-state
// checksum on one architecture (floating-point results may differ
// across architectures) and the exact traffic of the placed program.
type recorded struct {
	FNV64    string `json:"fnv64"`
	Messages int64  `json:"messages"`
	Bytes    int64  `json:"bytes"`
}

// execBase is what the three execution workloads share: the placed
// program, the P=1 reference and the recorded expectations.
type execBase struct {
	name    string
	res     *core.Result
	refSum  uint64
	seqP1MS float64
	want    *recorded // nil when no entry exists for this GOARCH
	elapsed []float64 // ms per untraced op, as the layer itself reports or the op measures
}

// prepare places the program under comb for 16 processors and runs the
// independent reference: the same source compiled for one processor,
// executed by the sequential simulator (no communication at all).
func prepare(cfg *config, name string, p program) (*execBase, error) {
	b := &execBase{name: name}
	var err error
	if b.res, err = p.place(execProcs, core.VersionCombine); err != nil {
		return nil, err
	}
	seq, err := p.place(1, core.VersionCombine)
	if err != nil {
		return nil, fmt.Errorf("P=1 reference: %w", err)
	}
	t0 := time.Now()
	ref, err := spmd.RunParallel(seq, machine.SP2(), 1, 1)
	if err != nil {
		return nil, fmt.Errorf("P=1 reference: %w", err)
	}
	b.seqP1MS = float64(time.Since(t0)) / float64(time.Millisecond)
	b.refSum = checksum(ref.Mem, ref.Scalars)

	data, err := os.ReadFile(filepath.Join(cfg.root, "benchmark", "expected", "checksums.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		Workloads map[string]map[string]*recorded `json:"workloads"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("expected/checksums.json: %w", err)
	}
	arches := doc.Workloads[name]
	if arches == nil {
		return nil, fmt.Errorf("expected/checksums.json has no entry for %s", name)
	}
	if b.want = arches[goruntime.GOARCH]; b.want == nil {
		fmt.Fprintf(cfg.log, "notice: no recorded checksum for GOARCH=%s; checking against the in-process P=1 reference only\n", goruntime.GOARCH)
		for _, other := range arches { // traffic counts do not depend on the architecture
			b.want = &recorded{Messages: other.Messages, Bytes: other.Bytes}
			break
		}
	}
	return b, nil
}

// verify is the output check of one run.
func (b *execBase) verify(sum uint64, messages, bytes int64) error {
	if sum != b.refSum {
		return fmt.Errorf("%s: final state %016x differs from the P=1 reference %016x", b.name, sum, b.refSum)
	}
	if b.want.FNV64 != "" && fmt.Sprintf("%016x", sum) != b.want.FNV64 {
		return fmt.Errorf("%s: final state %016x differs from the recorded %s", b.name, sum, b.want.FNV64)
	}
	if messages != b.want.Messages || bytes != b.want.Bytes {
		return fmt.Errorf("%s: %d messages / %d bytes, recorded %d / %d", b.name, messages, bytes, b.want.Messages, b.want.Bytes)
	}
	return nil
}

// planMetrics times plan lowering from outside: the memory image and
// the shared plan both backends build per engine or per run.
func (b *execBase) planMetrics(m metrics) {
	t0 := time.Now()
	mem := runtime.NewMemory(b.res.Analysis.Unit, execProcs)
	m["runtime.new_memory_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
	a0 := mallocs()
	t0 = time.Now()
	plan.New(b.res, mem)
	m["plan.new_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
	m["plan.new_allocs"] = float64(mallocs() - a0)
}

func (b *execBase) shape() (int, int)               { return 1, 1 }
func (b *execBase) usage() (float64, uint64, error) { return selfUsage() }
func (b *execBase) close() error                    { return nil }

// ---------------------------------------------------------------------
// native-compute and native-comm

// nativeExec is one warm native.Engine.Run per op. The two workloads
// use the same layer the two ways round: gravity n=48 is dominated by
// the per-element compute loop, shallow n=16 × 40 steps by the message
// fabric.
type nativeExec struct {
	*execBase
	prog program
	eng  *native.Engine
	last native.Stats
}

func newNativeCompute(cfg *config) (workload, error) {
	return newNativeExec(cfg, "native-compute", gravity48)
}

func newNativeComm(cfg *config) (workload, error) {
	return newNativeExec(cfg, "native-comm", shallow16)
}

func newNativeExec(cfg *config, name string, p program) (workload, error) {
	b, err := prepare(cfg, name, p)
	if err != nil {
		return nil, err
	}
	w := &nativeExec{execBase: b, prog: p}
	if w.eng, err = native.NewEngine(b.res, execProcs); err != nil {
		return nil, err
	}
	// The cold run allocates the fabric's buffers; measured runs are warm.
	out, err := w.op(0, nil)
	if err != nil {
		return nil, err
	}
	if err := w.check(0, out); err != nil {
		return nil, err
	}
	w.elapsed = nil
	return w, nil
}

func (w *nativeExec) op(_ int, tr *recorder) (any, error) {
	tr.begin("native.run")
	out, err := w.eng.Run()
	tr.end()
	if err != nil {
		return nil, err
	}
	if tr == nil {
		w.elapsed = append(w.elapsed, out.Stats.ElapsedSeconds*1e3)
	}
	return out, nil
}

func (w *nativeExec) check(_ int, out any) error {
	run := out.(*native.RunResult)
	w.last = run.Stats
	return w.verify(checksum(run.Mem, run.Scalars), run.Stats.Messages, run.Stats.WireBytes)
}

func (w *nativeExec) comm() (float64, float64) {
	return float64(w.last.Messages), float64(w.last.WireBytes)
}

func (w *nativeExec) layers(m metrics, _ map[string]*layerFold) error {
	w.planMetrics(m)
	t0 := time.Now()
	if _, err := native.NewEngine(w.res, execProcs); err != nil {
		return err
	}
	m["native.new_engine_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
	m["native.messages"] = float64(w.last.Messages)
	m["native.wire_bytes"] = float64(w.last.WireBytes)
	m["native.hops"] = float64(w.last.Hops)
	m["native.fabric_alloc_bytes"] = float64(w.last.AllocBytes)
	if w.name == "native-comm" {
		m["native.op_ms_p90"] = percentile(w.elapsed, 0.9)
	}

	// One profiled run of the same engine splits wall time into compute
	// and blocked. With 16 goroutines on fewer cores, blocked time
	// includes waiting for a core.
	w.eng.EnableProfiling(0)
	out, err := w.eng.Run()
	w.eng.DisableProfiling()
	if err != nil {
		return err
	}
	if err := w.check(0, out); err != nil {
		return fmt.Errorf("profiled run: %w", err)
	}
	p := out.Profile
	if p.Truncated {
		return fmt.Errorf("native profile truncated: an event ring wrapped; raise the ring size in EnableProfiling")
	}
	wall := 0.0
	for _, pt := range p.ProcTotals {
		wall += pt.WallSeconds
	}
	if tiled := p.ComputeSeconds + p.BlockedSeconds; math.Abs(tiled-wall) > 0.05*wall {
		return fmt.Errorf("native profile does not tile: compute+blocked %.4fs vs Σ processor wall %.4fs", tiled, wall)
	}
	m["native.compute_s"] = p.ComputeSeconds
	m["native.blocked_s"] = p.BlockedSeconds
	m["native.blocked_frac"] = p.BlockedSeconds / (p.ComputeSeconds + p.BlockedSeconds)
	m["native.skew_ratio"] = p.SkewRatio

	// The paper's orig → comb message saving, in wall clock: three warm
	// runs of the orig placement against this run's comb median.
	orig, err := w.prog.place(execProcs, core.VersionOrig)
	if err != nil {
		return err
	}
	eng, err := native.NewEngine(orig, execProcs)
	if err != nil {
		return err
	}
	var origMS []float64
	for i := 0; i < 4; i++ {
		out, err := eng.Run()
		if err != nil {
			return err
		}
		if sum := checksum(out.Mem, out.Scalars); sum != w.refSum {
			return fmt.Errorf("%s orig: final state %016x differs from the P=1 reference %016x", w.name, sum, w.refSum)
		}
		if i > 0 { // the first run is cold
			origMS = append(origMS, out.Stats.ElapsedSeconds*1e3)
		}
	}
	m["native.speedup_vs_orig"] = median(origMS) / median(w.elapsed)
	return nil
}

// ---------------------------------------------------------------------
// sim-verify

// simVerify is one sharded BSP simulator run per op — memory image and
// plan rebuilt every run, as the API does — of hydflo/flux, whose
// large combined strips make ledger and section handling matter.
type simVerify struct {
	*execBase
	last *runtime.Ledger
}

func newSimVerify(cfg *config) (workload, error) {
	b, err := prepare(cfg, "sim-verify", flux16)
	if err != nil {
		return nil, err
	}
	return &simVerify{execBase: b}, nil
}

func (w *simVerify) op(_ int, tr *recorder) (any, error) {
	t0 := time.Now()
	tr.begin("spmd.run")
	out, err := spmd.RunParallel(w.res, machine.SP2(), execProcs, goruntime.GOMAXPROCS(0))
	tr.end()
	if err != nil {
		return nil, err
	}
	if tr == nil {
		w.elapsed = append(w.elapsed, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return out, nil
}

func (w *simVerify) check(_ int, out any) error {
	run := out.(*spmd.RunResult)
	w.last = run.Ledger
	return w.verify(checksum(run.Mem, run.Scalars), int64(run.Ledger.DynMessages), int64(run.Ledger.BytesMoved))
}

func (w *simVerify) comm() (float64, float64) {
	return float64(w.last.DynMessages), float64(w.last.BytesMoved)
}

func (w *simVerify) layers(m metrics, _ map[string]*layerFold) error {
	w.planMetrics(m)
	var j1 []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		out, err := spmd.RunParallel(w.res, machine.SP2(), execProcs, 1)
		if err != nil {
			return err
		}
		j1 = append(j1, float64(time.Since(t0))/float64(time.Millisecond))
		if err := w.check(0, out); err != nil {
			return fmt.Errorf("single-shard run: %w", err)
		}
	}
	m["spmd.run_j1_ms_p50"] = median(j1)
	m["spmd.run_jn_ms_p50"] = median(w.elapsed)
	m["spmd.shard_speedup"] = median(j1) / median(w.elapsed)
	m["spmd.seq_p1_ms"] = w.seqP1MS
	m["spmd.dyn_messages"] = float64(w.last.DynMessages)
	m["spmd.bytes_moved"] = float64(w.last.BytesMoved)
	m["spmd.barriers"] = float64(w.last.Barriers)
	return nil
}
