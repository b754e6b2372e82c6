package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// This file holds the Registry's serving-layer surface: the RED
// metrics the daemon's HTTP middleware feeds (rate, errors, duration
// per route), the scheduler queue-wait ledger, the build identity,
// and the scrape-time ServerStats callback — the families a
// dashboard needs to watch saturation develop.

// ObserveHTTP records one served HTTP request: it increments
// gcao_http_requests_total{route,code} and feeds the route's
// gcao_http_request_seconds histogram.
func (g *Registry) ObserveHTTP(route string, code int, seconds float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	codes := g.httpReq[route]
	if codes == nil {
		codes = map[string]int64{}
		g.httpReq[route] = codes
	}
	codes[strconv.Itoa(code)]++
	g.hist(famHTTPSeconds, route).Observe(seconds)
}

// queueWaitPool is the one label value of gcao_queue_wait_seconds: the
// daemon has a single scheduler pool.
const queueWaitPool = "compile"

// ObserveQueueWait records one job's scheduler admission-queue wait
// into the gcao_queue_wait_seconds histogram.
func (g *Registry) ObserveQueueWait(seconds float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hist(famQueueWait, queueWaitPool).Observe(seconds)
}

// SetBuildInfo sets the version label of the constant
// gcao_build_info{version} 1 sample ("" removes the family), so
// dashboards can correlate metric shifts with deploys.
func (g *Registry) SetBuildInfo(version string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.buildInfo = version
}

// ServerStats is the scrape-time snapshot of the serving layer's live
// occupancy, rendered as gauges plus the per-outcome job counter.
type ServerStats struct {
	HTTPInflight      int64
	QueueDepth        int64
	QueueCapacity     int64
	ActiveJobs        int64
	Workers           int64
	AvgServiceSeconds float64
	// JobOutcomes counts finished scheduler jobs by outcome
	// (completed, failed, expired, rejected).
	JobOutcomes map[string]int64
}

// SetServerStatsFunc registers the callback WritePrometheus invokes
// at scrape time to snapshot the serving layer (nil unregisters).
// The callback must be safe for concurrent use; it is called outside
// the registry lock.
func (g *Registry) SetServerStatsFunc(fn func() ServerStats) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.serverStats = fn
}

// writeHTTPRequests renders the two-label request counter (route-major,
// code-minor order — deterministic).
func writeHTTPRequests(b *strings.Builder, snap *registrySnapshot) {
	if len(snap.httpReq) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP gcao_http_requests_total HTTP requests served, by route and status code.\n# TYPE gcao_http_requests_total counter\n")
	for _, route := range sortedKeys(snap.httpReq) {
		codes := snap.httpReq[route]
		for _, code := range sortedKeys(codes) {
			fmt.Fprintf(b, "gcao_http_requests_total{code=%s,route=%s} %d\n",
				quoteLabel(code), quoteLabel(route), codes[code])
		}
	}
}

// writeServerFamilies renders the scrape-time serving gauges and the
// per-outcome scheduler job counter, sampled through the registered
// callback.
func writeServerFamilies(b *strings.Builder, snap *registrySnapshot) {
	if snap.serverStats == nil {
		return
	}
	st := snap.serverStats()
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatValue(v))
	}
	gauge("gcao_http_inflight", "HTTP requests currently being served.", float64(st.HTTPInflight))
	gauge("gcao_queue_depth", "Jobs waiting in the scheduler admission queue.", float64(st.QueueDepth))
	gauge("gcao_queue_capacity", "Admission queue capacity.", float64(st.QueueCapacity))
	gauge("gcao_jobs_active", "Jobs currently running on scheduler workers.", float64(st.ActiveJobs))
	gauge("gcao_pool_workers", "Scheduler worker goroutines.", float64(st.Workers))
	gauge("gcao_job_avg_service_seconds", "EWMA of per-job service time in seconds.", st.AvgServiceSeconds)
	writeScalarFamily(b, family{name: "gcao_sched_jobs_total", typ: "counter", label: "outcome",
		help: "Scheduler jobs by final outcome."}, st.JobOutcomes)
}
