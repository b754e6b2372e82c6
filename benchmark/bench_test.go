package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"gcao/internal/bench"
	"gcao/internal/core"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // sorted: 10 20 30 40
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 25}, {1, 40}, {0.9, 37}, {1.0 / 3, 20},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %g", got)
	}
}

// TestQuartiles holds quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
func TestQuartiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(xs); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{2, 1}); !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles(1,2) = %g, %g, want 0.75, 2.25", q1, q3)
	}
	if got := spread(xs); !near(got, 1) {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean(2, 8) = %g, want 4", got)
	}
	if got := geomean([]float64{0, 4}); !near(got, 4) {
		t.Errorf("geomean skips non-positive values: got %g, want 4", got)
	}
}

// TestFold folds a hand-made trace of two ops:
//
//	op 0: root 0–100 µs { a 10–40, b 50–90 { c 60–70 } }
//	op 1: root 200–300 µs { a 200–260 }
func TestFold(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []span{
		{name: "op", start: us(0), end: us(100), parent: -1, op: 0, allocs: 50},
		{name: "a", start: us(10), end: us(40), parent: 0, op: 0, allocs: 7},
		{name: "b", start: us(50), end: us(90), parent: 0, op: 0, allocs: 30},
		{name: "c", start: us(60), end: us(70), parent: 2, op: 0, allocs: 10},
		{name: "op", start: us(200), end: us(300), parent: -1, op: 1, allocs: 5},
		{name: "a", start: us(200), end: us(260), parent: 4, op: 1, allocs: 5},
	}
	layers, coverage := fold(spans)
	want := map[string]map[int][2]float64{ // layer → op → {self µs, own allocs}
		"op": {0: {30, 13}, 1: {40, 0}},
		"a":  {0: {30, 7}, 1: {60, 5}},
		"b":  {0: {30, 20}},
		"c":  {0: {10, 10}},
	}
	for name, ops := range want {
		l := layers[name]
		if l == nil || len(l.selfUS) != len(ops) {
			t.Fatalf("layer %s: got %+v, want ops %v", name, l, ops)
		}
		for op, w := range ops {
			if !near(l.selfUS[op], w[0]) || !near(l.allocs[op], w[1]) {
				t.Errorf("layer %s op %d: self %g µs, %g allocs; want %g, %g", name, op, l.selfUS[op], l.allocs[op], w[0], w[1])
			}
		}
	}
	// (30+30+10 + 60) inner self over (100 + 100) of root duration.
	if !near(coverage, 0.65) {
		t.Errorf("coverage = %g, want 0.65", coverage)
	}
	if us, allocs := layers["a"].p50(); !near(us, 45) || !near(allocs, 6) {
		t.Errorf("a.p50() = %g, %g, want 45, 6", us, allocs)
	}
	var none *layerFold
	if us, allocs := none.p50(); us != 0 || allocs != 0 {
		t.Errorf("p50 of a layer that never ran = %g, %g", us, allocs)
	}
}

func TestRecorderNesting(t *testing.T) {
	var off *recorder
	off.begin("x") // the untraced run: no-ops
	off.end()

	a := newRecorder(time.Now(), 0, true)
	a.setOp(3)
	a.begin("op")
	a.begin("inner")
	a.end()
	a.end()
	b := newRecorder(a.epoch, 1, false)
	b.begin("op")
	b.begin("inner")
	b.end()
	b.end()
	a.merge(b)
	if len(a.spans) != 4 {
		t.Fatalf("%d spans, want 4", len(a.spans))
	}
	if a.spans[0].parent != -1 || a.spans[1].parent != 0 || a.spans[2].parent != -1 || a.spans[3].parent != 2 {
		t.Errorf("parents after merge: %d %d %d %d", a.spans[0].parent, a.spans[1].parent, a.spans[2].parent, a.spans[3].parent)
	}
	if a.spans[1].op != 3 || a.spans[3].tid != 1 {
		t.Errorf("op/tid not carried: %+v %+v", a.spans[1], a.spans[3])
	}
	for _, s := range a.spans {
		if s.end < s.start {
			t.Errorf("span %s ends before it starts", s.name)
		}
	}
}

// countingLoad is a workload whose ops only record that they ran; the
// output check fails every fifth one.
type countingLoad struct {
	clients, block int
	ran            []atomic.Int32
}

func (w *countingLoad) shape() (int, int) { return w.clients, w.block }
func (w *countingLoad) op(i int, tr *recorder) (any, error) {
	tr.begin("layer")
	w.ran[i].Add(1)
	tr.end()
	return i, nil
}
func (w *countingLoad) check(i int, out any) error {
	if out.(int) != i {
		return fmt.Errorf("op %d returned %v", i, out)
	}
	if i%5 == 0 {
		return errors.New("every fifth op fails its check")
	}
	return nil
}
func (w *countingLoad) usage() (float64, uint64, error)             { return selfUsage() }
func (w *countingLoad) comm() (float64, float64)                    { return 0, 0 }
func (w *countingLoad) layers(metrics, map[string]*layerFold) error { return nil }
func (w *countingLoad) close() error                                { return nil }

// TestMeasureBlocks runs the measured loop over a fake workload with
// two clients: every op of every block runs exactly once, the loop
// stops at a block boundary, samples come back in op order with the
// check's verdict, each block sits between two reference readings, and
// a traced run traces every other block.
func TestMeasureBlocks(t *testing.T) {
	w := &countingLoad{clients: 2, block: 10, ran: make([]atomic.Int32, 1000)}
	m, err := measure(&config{seconds: 0.15, trace: true}, w)
	if err != nil {
		t.Fatal(err)
	}
	n := len(m.samples)
	if n == 0 || n%w.block != 0 || len(m.refs) != n/w.block+1 {
		t.Fatalf("%d samples and %d reference readings for blocks of %d", n, len(m.refs), w.block)
	}
	for i := range w.ran {
		want := int32(0)
		if i < n {
			want = 1
		}
		if got := w.ran[i].Load(); got != want {
			t.Fatalf("op %d ran %d times, want %d (%d samples)", i, got, want, n)
		}
	}
	ops := 0
	for i, s := range m.samples {
		if (s.err != nil) != (i%5 == 0) {
			t.Errorf("sample %d: err = %v", i, s.err)
		}
		if s.traced != ((i/w.block)%2 == 1) {
			t.Errorf("sample %d: traced = %v", i, s.traced)
		}
		if s.rawMS <= 0 || s.ms <= 0 {
			t.Errorf("sample %d: %g ms raw, %g ms normalised", i, s.rawMS, s.ms)
		}
	}
	for _, sp := range m.spans {
		if sp.name == "op" {
			ops++
		}
	}
	if traced := n / w.block / 2 * w.block; ops != traced {
		t.Errorf("%d op spans for %d traced ops", ops, traced)
	}
	if got := timeScale(refNominalMS/2, refNominalMS*3/2); !near(got, 1) {
		t.Errorf("timeScale around the nominal reading = %g, want 1", got)
	}
}

// streamBodies renders the first n requests of a seed's stream.
func streamBodies(seed int64, n int) []byte {
	s := newStream(seed)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		r := s.get(i)
		buf.WriteString(r.class.String())
		buf.Write(r.body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestStreamSeeded(t *testing.T) {
	const n = 3 * blockLen
	a, again, b := streamBodies(7, n), streamBodies(7, n), streamBodies(8, n)
	if !bytes.Equal(a, again) {
		t.Error("the same seed gave two different request streams")
	}
	if bytes.Equal(a, b) {
		t.Error("seeds 7 and 8 gave the same request stream")
	}
	// Every block holds the same classes, whatever the seed.
	for _, seed := range []int64{7, 8} {
		s := newStream(seed)
		for blk := 0; blk < 3; blk++ {
			var counts [4]int
			for i := 0; i < blockLen; i++ {
				counts[s.get(blk*blockLen+i).class]++
			}
			if counts != [4]int{warmPerBlk, coldPerBlk, execPerBlk / 2, execPerBlk / 2} {
				t.Errorf("seed %d block %d: class counts %v", seed, blk, counts)
			}
		}
	}
}

func TestSuiteOrderSeeded(t *testing.T) {
	orders := func(seed int64) [][]int {
		w := &compileSuite{progs: bench.Programs(), rng: rand.New(rand.NewSource(seed))}
		var out [][]int
		for i := 0; i < 8; i++ {
			out = append(out, w.order())
		}
		return out
	}
	same := func(a, b [][]int) bool {
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					return false
				}
			}
		}
		return true
	}
	if !same(orders(3), orders(3)) {
		t.Error("the same seed gave two different compile orders")
	}
	if same(orders(3), orders(4)) {
		t.Error("seeds 3 and 4 gave the same compile orders")
	}
}

// TestServeKeysCombine checks the assumption the serve-mix output check
// rests on: at every hot size and across the cold range the routine
// still combines to its Fig. 10(a) count (large problems exceed the
// combining threshold and keep more call sites).
func TestServeKeysCombine(t *testing.T) {
	expected, err := loadFig10a("..")
	if err != nil {
		t.Fatal(err)
	}
	combAt := func(p program, procs int) int {
		res, err := p.place(procs, core.VersionCombine)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalMessages()
	}
	for _, name := range [][2]string{{"shallow", "main"}, {"gravity", "main"}, {"trimesh", "gauss"}, {"hydflo", "hydro"}} {
		pr := mustProgram(name[0], name[1])
		for j := 0; j < hotKeys/4; j++ {
			n := pr.DefaultN + pr.DefaultN/8*j
			want := expected.combTotal(name[0] + "/" + name[1])
			if got := combAt(program{name[0], name[1], pr.Params(n)}, serveProcs); got != want {
				t.Errorf("%s/%s n=%d P=%d: %d messages, Fig. 10(a) says %d", name[0], name[1], n, serveProcs, got, want)
			}
		}
	}
	shallow := mustProgram("shallow", "main")
	want := expected.combTotal("shallow/main")
	sizes := []int{execN, coldBase, coldBase + coldRange - 1}
	for n := coldBase; n < coldBase+coldRange; n += 211 {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		procs := serveProcs
		if n == execN {
			procs = execGrid
		}
		if got := combAt(program{"shallow", "main", shallow.Params(n)}, procs); got != want {
			t.Errorf("shallow n=%d P=%d: %d messages, Fig. 10(a) says %d", n, procs, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		ms   metricSpec
		want string
	}{
		{"same", steady, steady, lower, "ok"},
		{"slower beyond the bound", steady, []float64{115, 116, 114, 115, 115}, lower, "regressed"},
		{"slower within the bound", steady, []float64{105, 106, 104, 105, 105}, lower, "ok"},
		{"faster", steady, []float64{50, 51, 49, 50, 50}, lower, "ok"},
		{"throughput down", steady, []float64{80, 81, 79, 80, 80}, higher, "regressed"},
		{"throughput up", steady, []float64{120, 121, 119, 120, 120}, higher, "ok"},
		{"too noisy to tell", []float64{80, 100, 120, 90, 110}, []float64{82, 101, 119, 95, 108}, lower, "unresolved"},
		{"noisy but every run better", []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, lower, "ok"},
	} {
		if _, got := verdict(c.a, c.b, c.ms); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestLabelEnforcesNames(t *testing.T) {
	sp := &spec{
		EndToEnd: []metricSpec{{Name: "op_ms_p50", Unit: "ms"}, {Name: "setup_s", Unit: "s"}},
		PerLayer: []metricSpec{{Name: "cfg.blocks", Unit: "count"}, {Name: "serve.build_s", Unit: "s"}},
	}
	if _, err := sp.label(sp.EndToEnd, metrics{"op_ms_p50": 1}, false); err == nil {
		t.Error("a listed end-to-end metric was omitted and label did not fail")
	}
	if _, err := sp.label(sp.EndToEnd, metrics{"op_ms_p50": 1, "setup_s": 2, "extra": 3}, false); err == nil {
		t.Error("an unlisted metric was emitted and label did not fail")
	}
	out, err := sp.label(sp.PerLayer, metrics{"cfg.blocks": 424}, true)
	if err != nil {
		t.Fatal(err)
	}
	if out["cfg.blocks"] != (metricValue{424, "count"}) || out["serve.build_s"] != (metricValue{0, "s"}) {
		t.Errorf("per-layer labels: %+v", out)
	}
}

// TestSmoke runs every workload end to end for a fraction of a second
// with a single set-up, including the daemon's build, start and stop,
// and the traced path of the cheapest in-process workload and of the
// daemon workload.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload, a native gravity run included: about 20 s")
	}
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	type runCase struct {
		workload string
		trace    bool
		seconds  float64
	}
	var cases []runCase
	for _, name := range sp.workloadNames() {
		cases = append(cases, runCase{name, false, 0.3})
	}
	// Long enough for a second, traced, op or block.
	cases = append(cases, runCase{"compile-suite", true, 0.3}, runCase{"serve-mix", true, 1})
	for _, c := range cases {
		cfg := &config{root: "..", workload: c.workload, seed: 1, seconds: c.seconds, trace: c.trace, setupReps: 1, log: io.Discard}
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", c.workload, c.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", c.workload, c.trace, res.Correct, res.Attempted, res.Failed)
		}
		want := len(sp.EndToEnd)
		if c.trace {
			want = len(sp.PerLayer)
		}
		if len(res.Metrics) != want {
			t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", c.workload, c.trace, len(res.Metrics), want)
		}
	}
}
