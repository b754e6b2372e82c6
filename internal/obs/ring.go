package obs

import (
	"sync"

	"gcao/internal/native/prof"
	"gcao/internal/obs/attr"
	"gcao/internal/obs/ring"
)

// RequestRecord is the retained observability residue of one served
// compile request: its id, outcome, the full placement decision log,
// and the final counters. The daemon keeps the most recent records in
// a DecisionRing so `GET /debug/decisions/{id}` can answer "why did
// the compiler place it there?" for traffic that already completed.
type RequestRecord struct {
	ID       string           `json:"id"`
	UnixNS   int64            `json:"unix_ns"`
	Strategy string           `json:"strategy,omitempty"`
	Status   string           `json:"status"`
	Error    string           `json:"error,omitempty"`
	Decision []Decision       `json:"decisions,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
	// Attr is the simulator's cost-attribution record, retained so
	// GET /debug/critpath/{id} can analyze completed traffic.
	Attr *attr.Run `json:"attr,omitempty"`
	// NativeProf is the native backend's measured runtime profile,
	// retained so GET /debug/nativeprof/{id} can answer "where did the
	// processors actually spend their time?" after the fact.
	NativeProf *prof.NativeProfile `json:"native_prof,omitempty"`
}

// DecisionRing is a bounded, concurrency-safe ring of RequestRecords:
// adding beyond the capacity evicts the oldest record.
type DecisionRing struct {
	mu   sync.Mutex
	recs ring.Ring[RequestRecord]
}

// NewDecisionRing builds a ring holding at most n records (n <= 0
// disables retention).
func NewDecisionRing(n int) *DecisionRing {
	return &DecisionRing{recs: ring.New[RequestRecord](n)}
}

// Add retains one record, evicting the oldest when full.
func (r *DecisionRing) Add(rec RequestRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs.Add(rec)
}

// Get returns the record with the given id, newest match first.
func (r *DecisionRing) Get(id string) (RequestRecord, bool) {
	if r == nil {
		return RequestRecord{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.recs.Len(); i++ {
		if rec := r.recs.Newest(i); rec.ID == id {
			return *rec, true
		}
	}
	return RequestRecord{}, false
}

// IDs returns the retained request ids, newest first.
func (r *DecisionRing) IDs() []string {
	return r.RecentIDs(0)
}

// RecentIDs returns up to limit retained request ids, newest first;
// limit <= 0 returns all of them.
func (r *DecisionRing) RecentIDs(limit int) []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.recs.Len()
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.recs.Newest(i).ID
	}
	return out
}

// Len returns the number of retained records.
func (r *DecisionRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recs.Len()
}
