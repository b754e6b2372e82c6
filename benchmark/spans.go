package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed interval around a call into a layer. Spans are
// recorded from the benchmark's side of the package boundary: nothing
// inside the program under test is instrumented.
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int           // index into recorder.spans, -1 for a root
	op         int           // the measured op this span belongs to
	tid        int           // the load-generating goroutine that recorded it
	allocs     uint64        // heap objects allocated inside the span
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// is the untraced run: begin and end are no-ops, so workload code is
// written once.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
	op    int
	tid   int
	// allocs says whether spans count heap allocations. The count is
	// per process, so it means something only when one goroutine
	// generates load; reading it stops the world, which concurrent
	// clients would see as latency.
	allocs bool
}

// newRecorder returns a recorder for one goroutine; recorders that
// share an epoch can be merged.
func newRecorder(epoch time.Time, tid int, allocs bool) *recorder {
	return &recorder{epoch: epoch, tid: tid, allocs: allocs}
}

// merge appends another goroutine's spans, keeping parent links.
func (r *recorder) merge(o *recorder) {
	off := len(r.spans)
	for _, s := range o.spans {
		if s.parent >= 0 {
			s.parent += off
		}
		r.spans = append(r.spans, s)
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, len(r.spans))
	s := span{name: name, parent: parent, op: r.op, tid: r.tid}
	if r.allocs {
		s.allocs = mallocs()
	}
	s.start = time.Since(r.epoch)
	r.spans = append(r.spans, s)
}

// end closes the innermost open span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].end = now
	if r.allocs {
		r.spans[i].allocs = mallocs() - r.spans[i].allocs
	}
}

// setOp names the op that spans begun afterwards belong to.
func (r *recorder) setOp(op int) {
	if r != nil {
		r.op = op
	}
}

// layerFold is the self-time fold of one layer (span name): per op, the
// summed self time and allocations of its spans.
type layerFold struct {
	selfUS map[int]float64
	allocs map[int]float64
}

// fold computes each span's self time — its duration minus the part of
// its interval covered by its direct children — and groups it by span
// name and op. coverage is Σ self time of non-root spans ÷ Σ duration
// of root spans: 1.0 means the layer spans tile the traced ops.
func fold(spans []span) (layers map[string]*layerFold, coverage float64) {
	covered := make([]time.Duration, len(spans))
	childAllocs := make([]uint64, len(spans))
	for _, s := range spans {
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		lo, hi := s.start, s.end
		if lo < p.start {
			lo = p.start
		}
		if hi > p.end {
			hi = p.end
		}
		if hi > lo {
			covered[s.parent] += hi - lo
		}
		childAllocs[s.parent] += s.allocs
	}
	layers = map[string]*layerFold{}
	var rootDur, innerSelf time.Duration
	for i, s := range spans {
		self := s.end - s.start - covered[i]
		if s.parent < 0 {
			rootDur += s.end - s.start
		} else {
			innerSelf += self
		}
		l := layers[s.name]
		if l == nil {
			l = &layerFold{selfUS: map[int]float64{}, allocs: map[int]float64{}}
			layers[s.name] = l
		}
		l.selfUS[s.op] += float64(self) / float64(time.Microsecond)
		if s.allocs > childAllocs[i] {
			l.allocs[s.op] += float64(s.allocs - childAllocs[i])
		}
	}
	if rootDur > 0 {
		coverage = float64(innerSelf) / float64(rootDur)
	}
	return layers, coverage
}

// p50 returns the median over ops of the layer's per-op self time (µs)
// and allocation count; zeros for a layer that never ran.
func (l *layerFold) p50() (us, allocs float64) {
	if l == nil {
		return 0, 0
	}
	return median(mapValues(l.selfUS)), median(mapValues(l.allocs))
}

func mapValues(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace_event JSON
// (chrome://tracing, Perfetto) to dir/trace-<workload>.json.
func writeChromeTrace(dir, workload string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name, Ph: "X", PID: 1, TID: s.tid,
			TS:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"op": s.op, "parent": s.parent, "allocs": s.allocs},
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
