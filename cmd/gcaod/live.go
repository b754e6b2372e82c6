package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"gcao"
	"gcao/internal/obs"
	"gcao/internal/obs/reqtrace"
	"gcao/internal/sched"
)

// liveDoc is one /debug/live snapshot: the numbers an operator
// watches while a saturation or regression develops, assembled from
// the registry, cache, scheduler and flight recorder. gcaotop renders
// the same document.
type liveDoc struct {
	UnixNS        int64   `json:"unix_ns"`
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// ReqPerSec is the HTTP request rate since the previous snapshot
	// of this stream (0 on the first event).
	ReqPerSec float64 `json:"req_per_sec"`
	Inflight  int64   `json:"inflight"`
	// Routes carries per-route request counts and interpolated latency
	// quantiles; Codes sums responses by status code across routes.
	Routes []obs.RouteStat  `json:"routes"`
	Codes  map[string]int64 `json:"codes"`
	// CacheHitRate is the compile tier's hits/(hits+misses); 0 before
	// any lookup.
	CacheHitRate   float64              `json:"cache_hit_rate"`
	Cache          gcao.CacheStats      `json:"cache"`
	Sched          sched.Stats          `json:"scheduler"`
	QueueWaitP50ms float64              `json:"queue_wait_p50_ms"`
	QueueWaitP99ms float64              `json:"queue_wait_p99_ms"`
	Flight         reqtrace.FlightStats `json:"flight"`
	// GapRatio aggregates estimated traffic over the communication
	// lower bound across the benchmark×version pairs this daemon has
	// compiled; GapPoints counts those pairs (0 until one is measured).
	GapRatio  float64 `json:"gap_ratio"`
	GapPoints int     `json:"gap_points"`
}

// liveSnapshot assembles one liveDoc. prevTotal is the previous
// snapshot's summed request count (-1 on the first event) and dt the
// time since it, for the rate.
func (s *server) liveSnapshot(prevTotal int64, dt time.Duration) (liveDoc, int64) {
	codes := s.reg.HTTPCodeTotals()
	var total int64
	for _, n := range codes {
		total += n
	}
	cache := s.cache.Stats()
	doc := liveDoc{
		UnixNS:         time.Now().UnixNano(),
		Version:        s.cfg.version,
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Inflight:       s.inflight.Load(),
		Routes:         s.reg.HTTPRouteStats(),
		Codes:          codes,
		Cache:          cache,
		Sched:          s.pool.Stats(),
		QueueWaitP50ms: s.reg.QueueWaitQuantile(0.50) * 1e3,
		QueueWaitP99ms: s.reg.QueueWaitQuantile(0.99) * 1e3,
		Flight:         s.flight.Stats(),
	}
	doc.GapRatio, doc.GapPoints = s.reg.AggregateGap()
	if lookups := cache.Compile.Hits + cache.Compile.Misses; lookups > 0 {
		doc.CacheHitRate = float64(cache.Compile.Hits) / float64(lookups)
	}
	if prevTotal >= 0 && dt > 0 {
		doc.ReqPerSec = float64(total-prevTotal) / dt.Seconds()
	}
	return doc, total
}

// handleLive streams registry snapshots as server-sent events, one
// per -live-interval tick (the first immediately), until the client
// disconnects or the ?n=N event budget is spent. Plain `curl -N` or
// gcaotop are sufficient clients.
func (s *server) handleLive(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeErrMsg(w, r, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			s.writeErrMsg(w, r, http.StatusBadRequest, "bad n "+q)
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	ticker := time.NewTicker(s.cfg.liveInterval)
	defer ticker.Stop()
	prevTotal := int64(-1)
	last := time.Now()
	for i := 0; n == 0 || i < n; i++ {
		now := time.Now()
		doc, total := s.liveSnapshot(prevTotal, now.Sub(last))
		prevTotal, last = total, now
		data, err := json.Marshal(doc)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return
		}
		fl.Flush()
		if n != 0 && i == n-1 {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}
