package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestRegistryREDFamilies pins the serving-layer exposition: the
// two-label request counter, the per-route latency histogram, the
// queue-wait histogram and the build-info sample all render as valid
// scrapeable text.
func TestRegistryREDFamilies(t *testing.T) {
	g := NewRegistry()
	g.SetBuildInfo("v1.2.3-test")
	g.ObserveHTTP("/compile", 200, 0.010)
	g.ObserveHTTP("/compile", 200, 0.020)
	g.ObserveHTTP("/compile", 429, 0.0001)
	g.ObserveHTTP("/metrics", 200, 0.001)
	g.ObserveQueueWait(0.005)
	g.ObserveQueueWait(0.100)

	var buf bytes.Buffer
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := CheckPromText(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		`gcao_build_info{version="v1.2.3-test"} 1`,
		`gcao_http_requests_total{code="200",route="/compile"} 2`,
		`gcao_http_requests_total{code="429",route="/compile"} 1`,
		`gcao_http_requests_total{code="200",route="/metrics"} 1`,
		`gcao_http_request_seconds_count{route="/compile"} 3`,
		`gcao_http_request_seconds_bucket{route="/compile",le="+Inf"} 3`,
		`gcao_queue_wait_seconds_count{pool="compile"} 2`,
		`# TYPE gcao_http_requests_total counter`,
		`# TYPE gcao_http_request_seconds histogram`,
		`# TYPE gcao_queue_wait_seconds histogram`,
		`# TYPE gcao_build_info gauge`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	// Determinism: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := g.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("exposition not deterministic")
	}
	// Clearing the build info removes the family.
	g.SetBuildInfo("")
	buf.Reset()
	g.WritePrometheus(&buf)
	if strings.Contains(buf.String(), "gcao_build_info") {
		t.Fatal("build info rendered after clearing")
	}
}

func TestRegistryServerStatsFamilies(t *testing.T) {
	g := NewRegistry()
	g.Absorb(nil, "ok")
	var buf bytes.Buffer
	g.WritePrometheus(&buf)
	if strings.Contains(buf.String(), "gcao_http_inflight") {
		t.Fatal("server families rendered without a callback")
	}
	g.SetServerStatsFunc(func() ServerStats {
		return ServerStats{
			HTTPInflight: 2, QueueDepth: 3, QueueCapacity: 64,
			ActiveJobs: 4, Workers: 8, AvgServiceSeconds: 0.0125,
			JobOutcomes: map[string]int64{"completed": 10, "rejected": 1, "expired": 2},
		}
	})
	buf.Reset()
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := CheckPromText(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		"gcao_http_inflight 2",
		"gcao_queue_depth 3",
		"gcao_queue_capacity 64",
		"gcao_jobs_active 4",
		"gcao_pool_workers 8",
		"gcao_job_avg_service_seconds 0.0125",
		`gcao_sched_jobs_total{outcome="completed"} 10`,
		`gcao_sched_jobs_total{outcome="rejected"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	g.SetServerStatsFunc(nil)
	buf.Reset()
	g.WritePrometheus(&buf)
	if strings.Contains(buf.String(), "gcao_http_inflight") {
		t.Fatal("server families rendered after unregistering")
	}
}

// TestHTTPRouteStatsAndCodeTotals: what an operator reads per route is on
// the exposition — requests by status code, the latency count and the
// buckets a quantile is interpolated from — and a nil registry is inert.
func TestHTTPRouteStatsAndCodeTotals(t *testing.T) {
	g := NewRegistry()
	for i := 0; i < 100; i++ {
		g.ObserveHTTP("/compile", 200, 0.004)
	}
	g.ObserveHTTP("/compile", 500, 2.0)
	g.ObserveHTTP("/metrics", 200, 0.0002)
	text := exposition(t, g)
	for _, want := range []string{
		`gcao_http_requests_total{code="200",route="/compile"} 100`,
		`gcao_http_requests_total{code="500",route="/compile"} 1`,
		`gcao_http_requests_total{code="200",route="/metrics"} 1`,
		`gcao_http_request_seconds_count{route="/compile"} 101`,
		`gcao_http_request_seconds_bucket{route="/compile",le="0.0025"} 0`,
		`gcao_http_request_seconds_bucket{route="/compile",le="0.005"} 100`,
		`gcao_http_request_seconds_bucket{route="/compile",le="1"} 100`,
		`gcao_http_request_seconds_bucket{route="/compile",le="2.5"} 101`,
		`gcao_http_request_seconds_bucket{route="/metrics",le="0.00025"} 1`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	var nilG *Registry
	nilG.ObserveHTTP("/x", 200, 1)
	nilG.ObserveQueueWait(1)
	nilG.SetBuildInfo("x")
	nilG.SetServerStatsFunc(nil)
}

// exposition renders the registry, failing the test on a write error or
// an exposition the validator rejects.
func exposition(t *testing.T, g *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := CheckPromText(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	return buf.String()
}

// TestRegistryREDConcurrent exercises the write paths under concurrent
// scrapes (run with -race); the counter the scrapes read ends at the
// number of requests observed.
func TestRegistryREDConcurrent(t *testing.T) {
	g := NewRegistry()
	g.SetBuildInfo("race")
	g.SetServerStatsFunc(func() ServerStats { return ServerStats{Workers: 1} })
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g.ObserveHTTP("/compile", 200, 0.001)
				g.ObserveQueueWait(0.0001)
				if i%10 == 0 {
					var buf bytes.Buffer
					g.WritePrometheus(&buf)
				}
			}
		}(w)
	}
	wg.Wait()
	if text := exposition(t, g); !strings.Contains(text, `gcao_http_requests_total{code="200",route="/compile"} 800`+"\n") {
		t.Fatalf("exposition after 800 requests:\n%s", text)
	}
}
