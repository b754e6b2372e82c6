// Package obs is the zero-dependency observability subsystem of the
// compiler and simulator: a span recorder capturing wall time and
// allocations for every pipeline phase, a named counter/gauge metrics
// registry, a structured per-entry placement decision log (the
// machine-readable version of the paper's Fig. 6 trace annotations),
// and a simulator run's records: its superstep stream (attr.Run, one
// attr.Step per executed communication group) and its communication
// profile (the sender→receiver byte matrix and the time split).
//
// Every method is nil-safe: a nil *Recorder is a no-op, so the
// compiler pipeline threads one unconditionally and pays nothing when
// observability is disabled.
package obs

import (
	"runtime/metrics"
	"sync"
	"time"

	"gcao/internal/native/prof"
	"gcao/internal/obs/attr"
)

// Span is one completed pipeline phase.
type Span struct {
	Name string `json:"name"`
	// StartUS and DurUS are microseconds relative to the recorder's
	// creation.
	StartUS int64 `json:"start_us"`
	DurUS   int64 `json:"dur_us"`
	// AllocBytes is the heap the whole process allocated while the span
	// was open (cumulative allocation delta, not live bytes). It lags by
	// what sits in the per-P allocation caches: small objects are counted
	// when their span of memory is swapped out, large ones at once.
	AllocBytes int64 `json:"alloc_bytes"`
	// Depth is the nesting depth at which the span was opened.
	Depth int `json:"depth"`
}

// Recorder accumulates spans, metrics, placement decisions and a
// communication profile over one or more pipeline runs.
type Recorder struct {
	mu        sync.Mutex
	epoch     time.Time
	spans     []Span
	depth     int
	counters  map[string]int64
	gauges    map[string]float64
	decisions []Decision
	profile   *CommProfile
	attrRun   *attr.Run
	natProf   *prof.NativeProfile
	log       *Logger
	reqID     string
}

// New builds an empty recorder whose clock starts now.
func New() *Recorder {
	return &Recorder{
		epoch:    time.Now(),
		counters: map[string]int64{},
		gauges:   map[string]float64{},
	}
}

// SetLog attaches a structured event logger and a request id to the
// recorder: every subsequent Event (and the debug event emitted when a
// span ends) is written request-scoped. A nil logger detaches.
func (r *Recorder) SetLog(l *Logger, reqID string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = l
	r.reqID = reqID
}

// Event emits one structured log event through the attached logger
// (no-op without one), prefixing the recorder's request id.
func (r *Recorder) Event(lv Level, event string, fields ...Field) {
	if r == nil {
		return
	}
	r.mu.Lock()
	l, id := r.log, r.reqID
	r.mu.Unlock()
	if !l.Enabled(lv) {
		return
	}
	if id != "" {
		fields = append([]Field{F("req", id)}, fields...)
	}
	l.Log(lv, event, fields...)
}

// SpanEnd closes a span opened by Start.
type SpanEnd func()

// Start opens a named span and returns the closure that ends it:
//
//	defer rec.Start("scalarize")()
//
// On a nil recorder it returns a no-op.
func (r *Recorder) Start(name string) SpanEnd {
	if r == nil {
		return func() {}
	}
	// runtime/metrics reads the counter without stopping the world, which
	// filling a runtime.MemStats does: twice a span, fifteen spans a request.
	st := &struct {
		heap [1]metrics.Sample
		done bool
	}{heap: [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
	metrics.Read(st.heap[:])
	startAlloc := st.heap[0].Value.Uint64()
	start := time.Now()
	r.mu.Lock()
	depth := r.depth
	r.depth++
	r.mu.Unlock()
	return func() {
		if st.done {
			return
		}
		st.done = true
		dur := time.Since(start)
		metrics.Read(st.heap[:])
		alloc := int64(st.heap[0].Value.Uint64() - startAlloc)
		r.mu.Lock()
		r.depth--
		r.spans = append(r.spans, Span{
			Name:       name,
			StartUS:    start.Sub(r.epoch).Microseconds(),
			DurUS:      dur.Microseconds(),
			AllocBytes: alloc,
			Depth:      depth,
		})
		debug := r.log.Enabled(LevelDebug)
		r.mu.Unlock()
		if debug {
			r.Event(LevelDebug, "phase.done",
				F("phase", name), F("dur_us", dur.Microseconds()), F("alloc_bytes", alloc))
		}
	}
}

// Spans returns a copy of the completed spans in completion order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Add increments a named counter.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] += delta
}

// Gauge sets a named gauge.
func (r *Recorder) Gauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = v
}

// Counter returns a counter's current value (0 when absent or nil).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Counters returns a copy of all counters.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// Gauges returns a copy of all gauges.
func (r *Recorder) Gauges() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.gauges))
	for k, v := range r.gauges {
		out[k] = v
	}
	return out
}

// AddDecision appends one placement decision record.
func (r *Recorder) AddDecision(d Decision) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.decisions = append(r.decisions, d)
}

// Decisions returns a copy of the decision log.
func (r *Recorder) Decisions() []Decision {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Decision(nil), r.decisions...)
}

// SetProfile installs the communication profile of the latest
// simulator run (a later run replaces an earlier one).
func (r *Recorder) SetProfile(p *CommProfile) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.profile = p
}

// CommProfile returns the installed communication profile, or nil.
func (r *Recorder) CommProfile() *CommProfile {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.profile
}

// SetAttribution installs the cost-attribution record of the latest
// simulator run (a later run replaces an earlier one; nil clears).
func (r *Recorder) SetAttribution(a *attr.Run) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attrRun = a
}

// Attribution returns the installed cost-attribution record, or nil.
func (r *Recorder) Attribution() *attr.Run {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attrRun
}

// SetNativeProfile installs the runtime profile of the latest profiled
// native run (a later run replaces an earlier one; nil clears).
func (r *Recorder) SetNativeProfile(p *prof.NativeProfile) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.natProf = p
}

// NativeProfile returns the installed native runtime profile, or nil.
func (r *Recorder) NativeProfile() *prof.NativeProfile {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.natProf
}
