// Command benchmark is the repository's stand-alone benchmark. It
// measures the system from outside: it imports the layer packages and
// times calls into their exported functions, and drives cmd/gcaod as a
// subprocess over loopback HTTP. README.md in this directory explains
// the workloads, the metrics and how they interact; BENCHMARK.json at
// the repository root is the list of names this program may emit.
//
// One invocation runs one workload:
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// and prints, as its last line, one JSON object with the run's
// verdict and metrics. The end-to-end times are normalised by a
// reference kernel run between the ops (ref.go), because the sandbox's
// own speed changes more from minute to minute than the bounds allow.
// Two more modes serve paired comparisons:
//
//	benchmark -sweep OUT.jsonl -runs 10     every workload × seeds -from..-from+9
//	benchmark -compare A.jsonl B.jsonl      verdict per workload × metric
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how often a run sets its workload up from scratch;
// setup_s is the median, the last set-up is the one measured on.
const setupReps = 3

// config is one run's command line.
type config struct {
	root      string // checkout root: BENCHMARK.json, go.mod, cmd/gcaod
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	setupReps int
	log       io.Writer // human-readable progress and the metric table

	// The gcaod binary serve-mix drives, built once per process before
	// the first set-up, and how long the build took.
	daemonBin string
	buildS    float64
}

// workload is one set of inputs, set up from scratch by its
// constructor. The measured loop calls op from `clients` goroutines;
// an op's outputs are checked outside its timed section.
type workload interface {
	// shape reports how many goroutines generate load (a closed loop:
	// each sends its next op when the previous one completed) and the
	// block length. A block is what runs between two reference
	// readings; the loop stops only at the end of one, so per-op means
	// are taken over whole blocks of a fixed composition.
	shape() (clients, block int)
	// op runs measured op i, with a span around every layer call when
	// tr is non-nil.
	op(i int, tr *recorder) (out any, err error)
	// check verifies op i's outputs.
	check(i int, out any) error
	// usage samples the process under test: CPU seconds consumed and
	// heap objects allocated so far.
	usage() (cpuSec float64, mallocs uint64, err error)
	// comm is the traffic of the placed program per op, over the ops
	// run so far.
	comm() (msgs, bytes float64)
	// layers runs the traced run's extra measurements and reports the
	// workload's per-layer metrics from them, the span fold and the
	// untraced ops' own bookkeeping.
	layers(m metrics, lf map[string]*layerFold) error
	close() error
}

// metrics maps a metric name listed in BENCHMARK.json to its value.
type metrics map[string]float64

// constructors lists the workloads in BENCHMARK.json order.
var constructors = map[string]func(cfg *config) (workload, error){
	"compile-suite":  newCompileSuite,
	"native-compute": newNativeCompute,
	"native-comm":    newNativeComm,
	"sim-verify":     newSimVerify,
	"serve-mix":      newServeMix,
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is one measured op.
type sample struct {
	ms     float64 // wall time, normalised by the reference readings around its block
	rawMS  float64 // wall time as the clock read it
	traced bool
	err    error // what the op returned or its output check found
}

// measured is what the measured loop produced.
type measured struct {
	samples []sample
	cpuMS   float64   // CPU time of the process under test inside the blocks, normalised like the samples
	mallocs uint64    // heap objects it allocated inside the blocks
	refs    []float64 // every reference reading, ms
	spans   []span    // traced run only
}

// run executes one workload as the command line describes it.
func run(cfg *config) (*result, error) {
	sp, err := loadSpec(cfg.root)
	if err != nil {
		return nil, err
	}
	construct := constructors[cfg.workload]
	if construct == nil || !slices.Contains(sp.workloadNames(), cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (BENCHMARK.json lists %v)", cfg.workload, sp.workloadNames())
	}
	if cfg.seconds == 0 {
		cfg.seconds = float64(sp.RunSeconds)
	}
	fmt.Fprintf(cfg.log, "host: %s\n", pinProcs())
	if cfg.workload == "serve-mix" {
		if cfg.daemonBin, cfg.buildS, err = buildDaemon(cfg.root); err != nil {
			return nil, err
		}
	}

	refReading() // the first reading grows the heap to the kernel's working size
	var w workload
	var setups []float64
	for rep := 0; rep < cfg.setupReps; rep++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", rep, err)
			}
		}
		before := refReading()
		t0 := time.Now()
		if w, err = construct(cfg); err != nil {
			return nil, fmt.Errorf("set-up %d of %s: %w", rep+1, cfg.workload, err)
		}
		secs := time.Since(t0).Seconds()
		setups = append(setups, secs*timeScale(before, refReading()))
	}
	defer func() { _ = w.close() }() // the success path closes and checks below; closing twice is harmless

	meas, err := measure(cfg, w)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: len(meas.samples)}
	var plain, traced, raw []float64
	busyMS := 0.0
	for _, s := range meas.samples {
		busyMS += s.ms
		switch {
		case s.err != nil:
			if res.Failed++; res.Failed <= 10 {
				fmt.Fprintf(os.Stderr, "op failed: %v\n", s.err)
			}
		case s.traced:
			traced = append(traced, s.ms)
		default:
			plain = append(plain, s.ms)
			raw = append(raw, s.rawMS)
		}
	}
	ok := len(plain) + len(traced)
	if ok == 0 {
		return nil, errors.New("no op succeeded")
	}
	clients, _ := w.shape()

	m := metrics{}
	list := sp.EndToEnd
	if cfg.trace {
		list = sp.PerLayer
		layers, coverage := fold(meas.spans)
		m["trace.coverage"] = coverage
		if len(plain) > 0 && len(traced) > 0 {
			m["trace.overhead_frac"] = median(traced)/median(plain) - 1
		}
		if err := w.layers(m, layers); err != nil {
			return nil, fmt.Errorf("per-layer measurements: %w", err)
		}
		m["host.ref_ms_p50"] = median(meas.refs)
		m["host.time_scale"] = refNominalMS / median(meas.refs)
		m["host.raw_op_ms_p50"] = median(raw)
		processMetrics(m)
		if err := writeChromeTrace(filepath.Join(cfg.root, "benchmark", "out"), cfg.workload, meas.spans); err != nil {
			return nil, err
		}
	} else {
		msgs, bytes := w.comm()
		m["setup_s"] = median(setups)
		m["op_ms_p50"] = median(plain)
		m["ops_per_s"] = float64(ok) / (busyMS / 1e3 / float64(clients))
		m["cpu_ms_per_op"] = meas.cpuMS / float64(len(meas.samples))
		m["allocs_per_op"] = float64(meas.mallocs) / float64(len(meas.samples))
		m["comm_msgs_per_op"] = msgs
		m["comm_bytes_per_op"] = bytes
	}
	if err := w.close(); err != nil {
		return nil, fmt.Errorf("closing %s: %w", cfg.workload, err)
	}

	if res.Metrics, err = sp.label(list, m, cfg.trace); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(cfg.log, "%s seed=%d trace=%v: %d ops (%d samples for op_ms_p50), %d failed, %d reference readings (median %.2f ms)\n",
		cfg.workload, cfg.seed, cfg.trace, res.Attempted, len(plain), res.Failed, len(meas.refs), median(meas.refs))
	for _, ms := range list {
		fmt.Fprintf(cfg.log, "  %-32s %16.6g %s\n", ms.Name, res.Metrics[ms.Name].Value, ms.Unit)
	}
	return res, nil
}

// measure runs the closed loop for cfg.seconds, block by block, with a
// reference reading between blocks, and returns one sample per op. In
// a traced run every other block is traced, so traced and untraced ops
// share the run's conditions and their medians give the tracing
// overhead.
func measure(cfg *config, w workload) (*measured, error) {
	clients, blockLen := w.shape()
	epoch := time.Now()
	deadline := epoch.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var recs []*recorder
	if cfg.trace {
		for c := 0; c < clients; c++ {
			recs = append(recs, newRecorder(epoch, c, clients == 1))
		}
	}
	out := &measured{refs: []float64{refReading()}}
	for b := 0; b == 0 || time.Now().Before(deadline); b++ {
		cpu0, mal0, err := w.usage()
		if err != nil {
			return nil, err
		}
		tracers := recs
		if b%2 == 0 {
			tracers = nil
		}
		samples := runBlock(w, b*blockLen, blockLen, clients, tracers)
		cpu1, mal1, err := w.usage()
		if err != nil {
			return nil, err
		}
		before := out.refs[len(out.refs)-1]
		after := refReading()
		scale := timeScale(before, after)
		for i := range samples {
			samples[i].ms = samples[i].rawMS * scale
		}
		out.samples = append(out.samples, samples...)
		out.cpuMS += (cpu1 - cpu0) * 1e3 * scale
		out.mallocs += mal1 - mal0
		out.refs = append(out.refs, after)
	}
	if cfg.trace {
		all := recs[0]
		for _, r := range recs[1:] {
			all.merge(r)
		}
		out.spans = all.spans
	}
	return out, nil
}

// runBlock runs ops first … first+n-1 on `clients` goroutines, each
// taking the next op when its previous one completed, and returns
// their samples in op order. With tracers, goroutine c records spans
// into tracers[c].
func runBlock(w workload, first, n, clients int, tracers []*recorder) []sample {
	samples := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		var tr *recorder
		if tracers != nil {
			tr = tracers[c]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				tr.setOp(first + k)
				t0 := time.Now()
				tr.begin("op")
				out, err := w.op(first+k, tr)
				tr.end()
				rawMS := float64(time.Since(t0)) / float64(time.Millisecond)
				if err == nil {
					err = w.check(first+k, out)
				}
				samples[k] = sample{rawMS: rawMS, traced: tr != nil, err: err}
			}
		}()
	}
	wg.Wait()
	return samples
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

func (sp *spec) workloadNames() []string {
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// label attaches units to the measured values and enforces the name
// contract: a measured name BENCHMARK.json does not list is an error,
// and so is a listed end-to-end metric that was not measured or is 0.
// A per-layer metric whose layer does not run on this workload reads 0.
func (sp *spec) label(list []metricSpec, m metrics, perLayer bool) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	for _, ms := range list {
		v, measured := m[ms.Name]
		if !perLayer && (!measured || v == 0) {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", ms.Name)
		}
		out[ms.Name] = metricValue{Value: v, Unit: ms.Unit}
	}
	var unlisted []string
	for name := range m {
		if _, listed := out[name]; !listed {
			unlisted = append(unlisted, name)
		}
	}
	if len(unlisted) > 0 {
		sort.Strings(unlisted)
		return nil, fmt.Errorf("metrics %v are not listed in BENCHMARK.json", unlisted)
	}
	return out, nil
}

// pinProcs pins GOMAXPROCS to min(nproc, 4) — for this process and,
// through the environment, for the daemon it starts — so a bigger host
// does not silently change the sharding of the simulator or the
// daemon's worker count. It returns the host description the run logs.
func pinProcs() string {
	n := runtime.NumCPU()
	procs := n
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	os.Setenv("GOMAXPROCS", fmt.Sprint(procs))
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d GOARCH=%s %s cpu=%q", n, procs, runtime.GOARCH, runtime.Version(), cpuModel())
}

func main() {
	cfg := &config{setupReps: setupReps, log: os.Stdout}
	var trace int
	var sweepOut string
	var from, runs int
	var compare bool
	flag.StringVar(&cfg.root, "root", ".", "checkout root (holds BENCHMARK.json and go.mod)")
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "length of the measured loop (0: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1: record a span around every layer call and report per-layer metrics")
	flag.StringVar(&sweepOut, "sweep", "", "run every workload on -runs seeds starting at -from and append the results to this JSON-lines file")
	flag.IntVar(&from, "from", 1, "first seed for -sweep")
	flag.IntVar(&runs, "runs", 10, "seeds per workload for -sweep")
	flag.BoolVar(&compare, "compare", false, "compare two -sweep files given as arguments: A.jsonl B.jsonl")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare needs two files: A.jsonl B.jsonl")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(cfg.root, flag.Arg(0), flag.Arg(1), os.Stdout); err == nil && regressed {
			os.Exit(1)
		}
	case sweepOut != "":
		err = sweep(cfg, sweepOut, from, runs)
	default:
		var res *result
		if res, err = run(cfg); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}
