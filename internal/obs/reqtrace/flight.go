package reqtrace

import (
	"sync"
	"time"

	"gcao/internal/obs/ring"
)

// Record is one completed request as retained by the flight recorder:
// an identity block joinable against client logs (request id, trace
// id), the outcome, a phase-duration summary, and the full span tree.
type Record struct {
	ID      string `json:"id"`
	TraceID string `json:"trace_id"`
	Route   string `json:"route"`
	// Status is the HTTP status code the response carried.
	Status   int    `json:"status"`
	Error    string `json:"error,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	// Cache is the compile-tier outcome (hit/miss/dedup) when known.
	Cache  string `json:"cache,omitempty"`
	UnixNS int64  `json:"unix_ns"`
	// WallUS is the request's wall time; Phases sums the root span's
	// direct children by name (queue.wait, compile, place, …) — the
	// tiling discipline makes them account for the wall time.
	WallUS int64            `json:"wall_us"`
	Phases map[string]int64 `json:"phases,omitempty"`
	// Slow marks records that crossed the recorder's latency
	// threshold (they are retained longer).
	Slow bool `json:"slow,omitempty"`
	// NativeSkew and NativeBlockedSec are the runtime profiler's
	// headline numbers when the request executed on the profiled
	// native backend (zero otherwise): compute skew max/mean and total
	// seconds blocked in communication.
	NativeSkew       float64 `json:"native_skew,omitempty"`
	NativeBlockedSec float64 `json:"native_blocked_sec,omitempty"`
	// Trace is the full span tree. List endpoints serve Summary()
	// instead, which drops it.
	Trace *TraceDoc `json:"trace,omitempty"`
}

// Summary returns the record without its span tree, for listings.
func (r Record) Summary() Record {
	r.Trace = nil
	return r
}

// FlightRecorder is an always-on bounded ring of completed-request
// records plus a second, longer-lived store for requests that were
// slow (wall time at or above the threshold) or errored (status >=
// 400). The main ring answers "what just happened"; the slow store
// keeps the interesting traces around even while healthy traffic
// churns the ring.
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

// Threshold returns the slow-request latency threshold.
func (f *FlightRecorder) Threshold() time.Duration {
	if f == nil {
		return 0
	}
	return f.thresh
}

// Add retains one completed request. The record lands in the main
// ring always, and additionally in the slow store when it was slow or
// errored.
func (f *FlightRecorder) Add(rec Record) {
	if f == nil {
		return
	}
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
// match; the slow store is consulted after the main ring, so a trace
// evicted from the ring but retained as slow/errored still resolves.
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

// Recent returns up to limit summaries from the main ring, newest
// first; limit <= 0 returns all of them.
func (f *FlightRecorder) Recent(limit int) []Record {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return summarize(&f.recs, limit)
}

// Slow returns up to limit summaries from the slow/errored store,
// newest first.
func (f *FlightRecorder) Slow(limit int) []Record {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return summarize(&f.slow, limit)
}

func summarize(recs *ring.Ring[Record], limit int) []Record {
	n := recs.Len()
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]Record, n)
	for i := range out {
		out[i] = recs.Newest(i).Summary()
	}
	return out
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
