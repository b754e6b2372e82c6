// Package obs is the zero-dependency observability subsystem of the
// compiler and simulator: a span recorder capturing wall time and
// allocations for every pipeline phase (and, on a served request, the
// request phases those spans run inside), a named counter metrics
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
	"context"
	"log/slog"
	"runtime/metrics"
	"sync"
	"time"

	"gcao/internal/native/prof"
	"gcao/internal/obs/attr"
)

// Span is one completed pipeline span or request phase.
type Span struct {
	Name string `json:"name"`
	// StartUS and DurUS are microseconds relative to the recorder's
	// creation.
	StartUS int64 `json:"start_us"`
	DurUS   int64 `json:"dur_us"`
	// AllocBytes is the heap the whole process allocated while the span
	// was open (cumulative allocation delta, not live bytes). It lags by
	// what sits in the per-P allocation caches: small objects are counted
	// when their span of memory is swapped out, large ones at once. A
	// request phase does not measure it.
	AllocBytes int64 `json:"alloc_bytes"`
	// Depth is the nesting depth at which the span was opened: a request
	// phase is 0 and the pipeline spans inside it start at 1.
	Depth int `json:"depth"`
	// Phase marks a request phase (see Recorder.Phase).
	Phase bool `json:"phase,omitempty"`
	// Attrs are a request phase's attributes (see Recorder.SetAttr).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Recorder accumulates spans, metrics, placement decisions and a
// communication profile over one or more pipeline runs.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	depth int
	// phase is the open request phase when inPhase is set.
	phase     Span
	inPhase   bool
	counters  map[string]int64
	decisions []Decision
	profile   *CommProfile
	attrRun   *attr.Run
	natProf   *prof.NativeProfile
	log       *slog.Logger
	reqID     string
}

// New builds an empty recorder whose clock starts now.
func New() *Recorder {
	return &Recorder{epoch: time.Now(), counters: map[string]int64{}}
}

// NewRequest builds an empty recorder for a served request with its first
// phase, the named one, open from the recorder's clock zero: the phases
// then tile the request's wall time (see Phase) from its first
// microsecond, where a Phase call after New would leave the time between
// the two uncovered.
func NewRequest(phase string) *Recorder {
	r := New()
	r.phase, r.inPhase, r.depth = Span{Name: phase, Phase: true}, true, 1
	return r
}

// SetLog attaches a structured logger and a request id to the recorder:
// every subsequent Event (and the debug event emitted when a span ends)
// is written request-scoped. A nil logger detaches.
func (r *Recorder) SetLog(l *slog.Logger, reqID string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = l
	r.reqID = reqID
}

// Event writes one log record through the attached logger (no-op
// without one), the recorder's request id as its first attribute.
func (r *Recorder) Event(lv slog.Level, msg string, attrs ...slog.Attr) {
	if r == nil {
		return
	}
	r.mu.Lock()
	l, id := r.log, r.reqID
	r.mu.Unlock()
	ctx := context.Background()
	if l == nil || !l.Enabled(ctx, lv) {
		return
	}
	if id != "" {
		attrs = append([]slog.Attr{slog.String("req", id)}, attrs...)
	}
	l.LogAttrs(ctx, lv, msg, attrs...)
}

// Phase ends the open request phase, if any, and opens the named one at
// the same clock reading, so consecutive phases tile the request with no
// gap: their durations sum to the time from the first one's start to the
// last one's end. A served request's recorder is made with "ingress"
// open (NewRequest) and its last phase ends with EndPhase; the pipeline
// spans started meanwhile nest inside the phase they ran in.
func (r *Recorder) Phase(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Since(r.epoch).Microseconds()
	if !r.endPhaseLocked(now) {
		r.depth++
	}
	r.phase = Span{Name: name, StartUS: now, Phase: true}
	r.inPhase = true
}

// EndPhase ends the open request phase, if any.
func (r *Recorder) EndPhase() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.endPhaseLocked(time.Since(r.epoch).Microseconds()) {
		r.depth--
	}
}

func (r *Recorder) endPhaseLocked(nowUS int64) bool {
	if !r.inPhase {
		return false
	}
	r.phase.DurUS = nowUS - r.phase.StartUS
	r.spans = append(r.spans, r.phase)
	r.inPhase = false
	return true
}

// SetAttr attaches a key/value attribute to the open request phase (a
// repeated key overwrites); with no phase open it does nothing.
func (r *Recorder) SetAttr(key, val string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.inPhase {
		return
	}
	if r.phase.Attrs == nil {
		r.phase.Attrs = map[string]string{}
	}
	r.phase.Attrs[key] = val
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
		r.mu.Unlock()
		r.Event(slog.LevelDebug, "phase.done",
			slog.String("phase", name), slog.Int64("dur_us", dur.Microseconds()), slog.Int64("alloc_bytes", alloc))
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
