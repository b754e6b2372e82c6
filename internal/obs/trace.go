package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"gcao/internal/machine"
	"gcao/internal/native/prof"
	"gcao/internal/obs/attr"
)

// traceEvent is one Chrome trace_event record. The "X" (complete)
// phase carries both timestamp and duration in microseconds, so the
// file loads directly into chrome://tracing or Perfetto.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the Chrome trace_event JSON object form.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTrace emits the recorded spans in Chrome trace_event format.
// Span nesting is encoded by the events' time containment; counters
// are appended as a final instant event's args for easy inspection.
func (r *Recorder) WriteTrace(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`)
		return err
	}
	r.mu.Lock()
	spans := append([]Span(nil), r.spans...)
	counters := make(map[string]any, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	attrRun := r.attrRun
	natProf := r.natProf
	r.mu.Unlock()
	f := traceFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	for _, s := range spans {
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: s.Name,
			Ph:   "X",
			TS:   s.StartUS,
			Dur:  s.DurUS,
			PID:  1,
			TID:  1,
			Args: map[string]any{"alloc_bytes": s.AllocBytes, "depth": s.Depth},
		})
	}
	// The simulator's supersteps render as a second lane (tid 2), laid
	// out serially under SP2's BSP cost model so the lane's
	// relative widths show where the communication time goes. The args
	// carry the blame record: placement site, h-relation, traffic.
	if attrRun != nil {
		model := attr.CostModelFor(machine.SP2())
		ts := 0.0
		for _, s := range attrRun.Steps {
			cost := model.StepCost(s)
			dur := int64(cost * 1e6)
			if dur < 1 {
				dur = 1
			}
			f.TraceEvents = append(f.TraceEvents, traceEvent{
				Name: s.Site,
				Ph:   "X",
				TS:   int64(ts * 1e6),
				Dur:  dur,
				PID:  1,
				TID:  2,
				Args: map[string]any{
					"index": s.Index, "kind": s.Kind, "label": s.Label,
					"messages": s.Messages, "bytes": s.Bytes,
					"h_in": s.HIn, "h_out": s.HOut,
					"sources": s.Sources,
				},
			})
			ts += cost
		}
	}
	// A profiled native run renders as process 2: one lane per logical
	// processor (tid = processor number), each comm event a complete
	// span whose args carry the superstep, placement site and phase.
	// The gaps between spans ARE the compute time — the profiler only
	// records communication, so an empty stretch of lane reads as
	// compute, exactly as the fold accounts it.
	if natProf != nil {
		for q, evs := range natProf.Events {
			for _, ev := range evs {
				if ev.Dur == 0 {
					continue // zero-width markers clutter the lane
				}
				dur := ev.Dur / 1000
				if dur < 1 {
					dur = 1
				}
				f.TraceEvents = append(f.TraceEvents, traceEvent{
					Name: fmt.Sprintf("%s %s", ev.Phase, natProf.SiteName(ev.Site)),
					Ph:   "X",
					TS:   ev.Start / 1000,
					Dur:  dur,
					PID:  2,
					TID:  q,
					Args: map[string]any{
						"step": ev.Step, "site": natProf.SiteName(ev.Site),
						"phase": ev.Phase.String(), "dur_ns": ev.Dur,
					},
				})
			}
		}
	}
	if len(counters) > 0 {
		last := int64(0)
		for _, s := range spans {
			if end := s.StartUS + s.DurUS; end > last {
				last = end
			}
		}
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: "metrics",
			Ph:   "i",
			TS:   last,
			PID:  1,
			TID:  1,
			Args: counters,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// MetricsDoc is one snapshot of a recorder: every counter, the placement
// decision log, a simulated run's communication profile and superstep
// stream, a profiled native run's profile, and the raw spans (request
// phases included). It is the document WriteMetrics emits (hpfc
// -metrics-out) and what a gcaod flight record holds of its request,
// served one facet at a time. encoding/json sorts map keys, so the output
// is deterministic.
type MetricsDoc struct {
	Counters   map[string]int64    `json:"counters"`
	Decisions  []Decision          `json:"decisions,omitempty"`
	Profile    *CommProfile        `json:"profile,omitempty"`
	Attr       *attr.Run           `json:"attr,omitempty"`
	NativeProf *prof.NativeProfile `json:"native_prof,omitempty"`
	Spans      []Span              `json:"spans,omitempty"`
}

// Doc snapshots the recorder into an exportable document.
func (r *Recorder) Doc() MetricsDoc {
	if r == nil {
		return MetricsDoc{Counters: map[string]int64{}}
	}
	return MetricsDoc{
		Counters:   r.Counters(),
		Decisions:  r.Decisions(),
		Profile:    r.CommProfile(),
		Attr:       r.Attribution(),
		NativeProf: r.NativeProfile(),
		Spans:      r.Spans(),
	}
}

// WriteMetrics emits the metrics document as indented JSON.
func (r *Recorder) WriteMetrics(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Doc())
}
