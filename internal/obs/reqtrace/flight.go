package reqtrace

import (
	"slices"
	"sync"
	"time"

	"gcao/internal/obs"
	"gcao/internal/obs/ring"
)

// The facet names of GET /debug/flightrecorder/{id}?facet= and ?has=.
const (
	FacetDecisions  = "decisions"  // a placement ran and logged its decisions
	FacetCritPath   = "critpath"   // the request was simulated
	FacetNativeProf = "nativeprof" // the request ran on the native backend
)

// KnownFacet reports whether name is one of the facet names.
func KnownFacet(name string) bool {
	return name == FacetDecisions || name == FacetCritPath || name == FacetNativeProf
}

// facetNames lists the facets a snapshot carries, in the order above.
func facetNames(d *obs.MetricsDoc) []string {
	if d == nil {
		return nil
	}
	var out []string
	if len(d.Decisions) > 0 {
		out = append(out, FacetDecisions)
	}
	if d.Attr != nil {
		out = append(out, FacetCritPath)
	}
	if d.NativeProf != nil {
		out = append(out, FacetNativeProf)
	}
	return out
}

// Record is one completed request as retained by the flight recorder:
// an identity block joinable against client logs (request id, trace
// id), the outcome, a phase-duration summary, the names of the facets
// it carries, the request's spans and the snapshot its recorder held.
type Record struct {
	ID      string `json:"id"`
	TraceID string `json:"trace_id"`
	// RemoteParent is the parent span id of the ingested traceparent,
	// when the client sent one.
	RemoteParent string `json:"remote_parent,omitempty"`
	Route        string `json:"route"`
	// Status is the HTTP status code the response carried.
	Status   int    `json:"status"`
	Error    string `json:"error,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	// Cache is the compile-tier outcome (hit/miss/dedup) when known.
	Cache  string `json:"cache,omitempty"`
	UnixNS int64  `json:"unix_ns"`
	// WallUS is the request's wall time, from its recorder's creation to
	// the end of its last phase; Phases sums the request phases by name
	// (queue.wait, compile, place, …) — they tile, so they account for
	// the wall time. Add fills both in from Spans.
	WallUS int64            `json:"wall_us"`
	Phases map[string]int64 `json:"phases,omitempty"`
	// Slow marks records that crossed the recorder's latency
	// threshold (they are retained longer).
	Slow bool `json:"slow,omitempty"`
	// Facets names what Data holds; Add fills it in.
	Facets []string `json:"facets,omitempty"`
	// Spans are Data's spans, in completion order: the request phases
	// (Phase set, depth 0) and the pipeline spans that ran inside them.
	// Listings drop them.
	Spans []obs.Span `json:"spans,omitempty"`
	// Data is a snapshot of the request's recorder as it stood when the
	// request finished, held by pointer, so the ring and the slow store share one
	// copy. It is never served with the record: one facet of it at a time
	// is, by name.
	Data *obs.MetricsDoc `json:"-"`
}

// summarizePhases derives WallUS and Phases from the record's spans.
func (r *Record) summarizePhases() {
	for _, s := range r.Spans {
		if !s.Phase {
			continue
		}
		if r.Phases == nil {
			r.Phases = map[string]int64{}
		}
		r.Phases[s.Name] += s.DurUS
		r.WallUS = max(r.WallUS, s.StartUS+s.DurUS)
	}
}

// Has reports whether the record carries the named facet.
func (r *Record) Has(facet string) bool { return slices.Contains(r.Facets, facet) }

// FlightRecorder is an always-on bounded ring of completed-request
// records plus a second, longer-lived store for requests that were
// slow (wall time at or above the threshold) or errored (status >=
// 400). The main ring answers "what just happened"; the slow store
// keeps the interesting requests around — spans, facets and all —
// while healthy traffic churns the ring.
type FlightRecorder struct {
	mu     sync.Mutex
	recs   ring.Ring[Record]
	slow   ring.Ring[Record]
	thresh time.Duration

	added    int64
	retained int64
}

// NewFlightRecorder builds a recorder holding at most n recent
// records and nSlow slow/errored records; wall times at or above
// thresh mark a record slow. n <= 0 disables the main ring (slow
// retention still works); thresh <= 0 disables the slow mark (errors
// are still retained).
func NewFlightRecorder(n, nSlow int, thresh time.Duration) *FlightRecorder {
	return &FlightRecorder{recs: ring.New[Record](n), slow: ring.New[Record](nSlow), thresh: thresh}
}

// Add retains one completed request, summarizing its spans and naming
// its facets. The record lands in the main ring always, and additionally
// in the slow store when it was slow or errored.
func (f *FlightRecorder) Add(rec Record) {
	if f == nil {
		return
	}
	rec.summarizePhases()
	rec.Facets = facetNames(rec.Data)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.added++
	if f.thresh > 0 && time.Duration(rec.WallUS)*time.Microsecond >= f.thresh {
		rec.Slow = true
	}
	f.recs.Add(rec)
	if f.slow.Cap() > 0 && (rec.Slow || rec.Status >= 400) {
		f.retained++
		f.slow.Add(rec)
	}
}

// Get returns the record with the given id, preferring the newest
// match; the slow store is consulted after the main ring, so a request
// evicted from the ring but retained as slow/errored still resolves,
// with every facet it was born with.
func (f *FlightRecorder) Get(id string) (Record, bool) {
	if f == nil {
		return Record{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, recs := range []*ring.Ring[Record]{&f.recs, &f.slow} {
		for i := 0; i < recs.Len(); i++ {
			if rec := recs.Newest(i); rec.ID == id {
				return *rec, true
			}
		}
	}
	return Record{}, false
}

// List returns up to limit summaries (no spans, no facet data) of
// each store, newest first, and the recorder's stats, all of one
// instant; limit <= 0 returns every summary. A non-empty has keeps only
// the records that carry that facet, and the stats' Recent and
// SlowRetained then count those records, not the stores' occupancy.
func (f *FlightRecorder) List(limit int, has string) (recent, slow []Record, st FlightStats) {
	if f == nil {
		return nil, nil, FlightStats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st = f.statsLocked()
	recent, st.Recent = summarize(&f.recs, limit, has)
	slow, st.SlowRetained = summarize(&f.slow, limit, has)
	return recent, slow, st
}

// summarize walks one store once, newest first: the summaries of the
// first limit matching records and the number of all that match.
func summarize(recs *ring.Ring[Record], limit int, has string) ([]Record, int) {
	n := recs.Len()
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]Record, 0, limit)
	matched := 0
	for i := 0; i < n; i++ {
		rec := recs.Newest(i)
		if has != "" && !rec.Has(has) {
			continue
		}
		matched++
		if len(out) < limit {
			sum := *rec
			sum.Spans, sum.Data = nil, nil
			out = append(out, sum)
		} else if has == "" {
			return out, n // nothing is filtered: the rest match too
		}
	}
	return out, matched
}

// Stats reports the recorder's occupancy and lifetime totals.
type FlightStats struct {
	Capacity     int   `json:"capacity"`
	SlowCapacity int   `json:"slow_capacity"`
	ThresholdUS  int64 `json:"threshold_us"`
	Recent       int   `json:"recent"`
	SlowRetained int   `json:"slow_retained"`
	Added        int64 `json:"added"`
	Retained     int64 `json:"retained"`
}

// Stats snapshots the recorder.
func (f *FlightRecorder) Stats() FlightStats {
	if f == nil {
		return FlightStats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.statsLocked()
}

func (f *FlightRecorder) statsLocked() FlightStats {
	return FlightStats{
		Capacity:     f.recs.Cap(),
		SlowCapacity: f.slow.Cap(),
		ThresholdUS:  f.thresh.Microseconds(),
		Recent:       f.recs.Len(),
		SlowRetained: f.slow.Len(),
		Added:        f.added,
		Retained:     f.retained,
	}
}
