package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gcao/internal/obs"
)

const stencilSrc = `
routine smooth(n, steps)
real a(0:n+1, 0:n+1), b(0:n+1, 0:n+1)
!hpf$ distribute (block, block) :: a, b
do i = 0, n + 1
do j = 0, n + 1
a(i, j) = 1.0 + i * 0.1 + j * 0.01
b(i, j) = 0.0
enddo
enddo
do it = 1, steps
do i = 1, n
do j = 1, n
b(i, j) = 0.25 * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))
enddo
enddo
do i = 1, n
do j = 1, n
a(i, j) = b(i, j)
enddo
enddo
enddo
end
`

func testServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(serverConfig{
		reqTimeout: 30 * time.Second,
		logW:       io.Discard,
		logLevel:   slog.LevelDebug,
	})
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postCompile(t *testing.T, ts *httptest.Server, body map[string]any) (*http.Response, compileResponse) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out compileResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding compile response: %v", err)
		}
	}
	return resp, out
}

func TestCompileEndpoint(t *testing.T) {
	_, ts := testServer(t)
	raw, err := json.Marshal(map[string]any{
		"source":   stencilSrc,
		"params":   map[string]int{"n": 12, "steps": 2},
		"procs":    4,
		"strategy": "comb",
		"estimate": true,
		"simulate": true,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status = %d (%v)", resp.StatusCode, err)
	}
	var out compileResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.ReqID == "" || out.Strategy != "comb" || out.Machine != "SP2" {
		t.Fatalf("response header wrong: %+v", out)
	}
	if out.Messages <= 0 || out.Counts["NNC"] <= 0 {
		t.Fatalf("no placed messages reported: %+v", out)
	}
	if out.Estimate == nil || out.Estimate.NetSeconds <= 0 {
		t.Fatalf("estimate missing: %+v", out.Estimate)
	}
	if out.Simulate == nil || out.Simulate.DynMessages <= 0 || out.Simulate.BytesMoved <= 0 {
		t.Fatalf("simulation missing: %+v", out.Simulate)
	}
	// The reply is the answer and nothing else: what the request's
	// recorder measured is its flight record's.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if got, want := sortedKeys(doc), "cache counts estimate machine messages req_id simulate strategy"; got != want {
		t.Errorf("reply keys %q, want %q", got, want)
	}
	var decisions obs.MetricsDoc
	fetchFacet(t, ts, out.ReqID, "decisions", &decisions)
	if len(decisions.Decisions) == 0 || decisions.Counters["place.comb.groups"] <= 0 {
		t.Fatalf("decisions facet incomplete: %d decisions, counters %v",
			len(decisions.Decisions), decisions.Counters)
	}
	var critpath obs.MetricsDoc
	fetchFacet(t, ts, out.ReqID, "critpath", &critpath)
	if critpath.Profile == nil {
		t.Fatal("simulated request lost its communication profile")
	}
}

// TestCompileNativeBackend drives the native goroutine backend through
// the HTTP surface: backend:"native" adds the measured execution doc,
// the native.exec phase span, and the gcao_native_* metric families.
func TestCompileNativeBackend(t *testing.T) {
	_, ts := testServer(t)
	resp, out := postCompile(t, ts, map[string]any{
		"source":   stencilSrc,
		"params":   map[string]int{"n": 12, "steps": 2},
		"procs":    4,
		"strategy": "comb",
		"simulate": true,
		"backend":  "native",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status = %d", resp.StatusCode)
	}
	if out.Native == nil || out.Native.Procs != 4 || out.Native.Messages <= 0 || out.Native.ElapsedSeconds <= 0 {
		t.Fatalf("native doc missing or implausible: %+v", out.Native)
	}
	if out.Native.Ops["exchange"] <= 0 {
		t.Fatalf("native ops not counted under the listing vocabulary: %v", out.Native.Ops)
	}
	findSpan(t, fetchRecord(t, ts, out.ReqID), "native:comb", 1)
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(text), `gcao_native_exec_seconds_count{version="comb"} 1`) {
		t.Fatalf("native exec histogram missing from /metrics")
	}
	if !strings.Contains(string(text), `gcao_native_messages_total{version="comb"}`) {
		t.Fatalf("native message counter missing from /metrics")
	}

	// A 1-D array beside a 2-D one shifts over its own grid, on both backends.
	resp, out = postCompile(t, ts, map[string]any{
		"source": "routine r(n)\nreal a(n, n), c(n), d(n)\n!hpf$ distribute (block, block) :: a\n!hpf$ distribute (block) :: c, d\n" +
			"do i = 1, n\ndo j = 1, n\na(i, j) = i + j\nenddo\nenddo\ndo i = 1, n\nc(i) = i * 3\nd(i) = 0\nenddo\n" +
			"do i = 2, n - 1\nd(i) = c(i - 1) + c(i + 1)\nenddo\nend\n",
		"params":   map[string]int{"n": 32},
		"procs":    4,
		"strategy": "comb",
		"simulate": true,
		"backend":  "native",
	})
	if resp.StatusCode != http.StatusOK || out.Native == nil || out.Simulate == nil || out.Native.Messages != int64(out.Simulate.DynMessages) {
		t.Fatalf("mixed-rank grids: status %d, native %+v, simulate %+v: want 200 and the simulator's message count", resp.StatusCode, out.Native, out.Simulate)
	}

	// An unknown backend is a client error, not a server one.
	bad, _ := postCompile(t, ts, map[string]any{
		"source":  stencilSrc,
		"params":  map[string]int{"n": 12, "steps": 2},
		"procs":   4,
		"backend": "mpi",
	})
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown backend status = %d, want 400", bad.StatusCode)
	}
}

// TestMetricsAfterCompile is the acceptance check: after one /compile,
// GET /metrics returns parseable Prometheus text exposition containing
// phase-latency histogram samples and placement counters.
func TestMetricsAfterCompile(t *testing.T) {
	_, ts := testServer(t)
	resp, _ := postCompile(t, ts, map[string]any{
		"source": stencilSrc,
		"params": map[string]int{"n": 12, "steps": 2},
		"procs":  4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status = %d", resp.StatusCode)
	}
	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mResp.Body.Close()
	if mResp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", mResp.StatusCode)
	}
	if ct := mResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	text, err := io.ReadAll(mResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckPromText(text); err != nil {
		t.Fatalf("/metrics is not valid exposition format: %v\n%s", err, text)
	}
	for _, want := range []string{
		`gcao_requests_total{status="ok"} 1`,
		`gcao_phase_seconds_bucket{phase="parse",le="+Inf"} 1`,
		`gcao_phase_seconds_bucket{phase="place:comb"`,
		`gcao_pipeline_counter_total{name="place.comb.groups"}`,
		`gcao_pipeline_counter_total{name="analysis.comm_entries"}`,
		`gcao_placed_messages_count{version="comb"} 1`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestDecisionDebugEndpoint(t *testing.T) {
	_, ts := testServer(t)
	resp, out := postCompile(t, ts, map[string]any{
		"source": stencilSrc,
		"params": map[string]int{"n": 12, "steps": 2},
		"procs":  4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status = %d", resp.StatusCode)
	}
	var rec struct {
		ReqID     string           `json:"req_id"`
		Decisions []obs.Decision   `json:"decisions"`
		Counters  map[string]int64 `json:"counters"`
	}
	if code := getJSON(t, ts.URL+"/debug/flightrecorder/"+out.ReqID+"?facet=decisions", &rec); code != http.StatusOK {
		t.Fatalf("decisions status = %d", code)
	}
	if rec.ReqID != out.ReqID || len(rec.Decisions) == 0 || len(rec.Counters) == 0 {
		t.Fatalf("retained decision log wrong: %+v", rec)
	}
	// The list endpoint knows the id and that the request succeeded; an
	// unknown id is a 404, and so is the decision log of a request whose
	// placement came from the cache.
	var list flightList
	if code := getJSON(t, ts.URL+"/debug/flightrecorder?has=decisions", &list); code != http.StatusOK {
		t.Fatalf("decision list status = %d", code)
	}
	if ids := list.ids(); len(ids) != 1 || ids[0] != out.ReqID || list.Recent[0].Status != http.StatusOK {
		t.Fatalf("decision list = %+v", list.Recent)
	}
	if code := getJSON(t, ts.URL+"/debug/flightrecorder/nope?facet=decisions", nil); code != http.StatusNotFound {
		t.Fatalf("unknown id status = %d", code)
	}
	_, again := postCompile(t, ts, map[string]any{
		"source": stencilSrc,
		"params": map[string]int{"n": 12, "steps": 2},
		"procs":  4,
	})
	if code := getJSON(t, ts.URL+"/debug/flightrecorder/"+again.ReqID+"?facet=decisions", nil); code != http.StatusNotFound {
		t.Fatalf("cached placement's decision log status = %d", code)
	}
}

func TestCompileRejectsBadRequests(t *testing.T) {
	s, ts := testServer(t)
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d", resp.StatusCode)
	}
	// Source that does not compile.
	resp2, _ := postCompile(t, ts, map[string]any{"source": "routine broken(", "procs": 4})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken source status = %d", resp2.StatusCode)
	}
	// Unknown strategy.
	resp3, _ := postCompile(t, ts, map[string]any{
		"source": stencilSrc, "params": map[string]int{"n": 8, "steps": 1},
		"procs": 4, "strategy": "fastest",
	})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad strategy status = %d", resp3.StatusCode)
	}
	// Errors are counted and retained too.
	if got := s.reg.Counter("x"); got != 0 {
		t.Fatal("unexpected counter")
	}
	if s.reg.Requests() != 3 {
		t.Fatalf("requests = %d, want 3", s.reg.Requests())
	}
	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mResp.Body.Close()
	text, _ := io.ReadAll(mResp.Body)
	if !strings.Contains(string(text), `gcao_requests_total{status="error"} 3`) {
		t.Fatalf("error requests not exported (want 3):\n%s", text)
	}
}

// TestSimulateOutOfRangeSubscriptIs4xx: a program whose simulation
// reads past an array's declared bounds is the client's mistake — a 4xx
// carrying the request id and the position — and the daemon serves the
// next request as if nothing had happened.
func TestSimulateOutOfRangeSubscriptIs4xx(t *testing.T) {
	_, ts := testServer(t)
	const head = "routine r(n)\nreal a(n), b(n)\nreal x\n!hpf$ distribute (block) :: a, b\n" +
		"do i = 1, n\na(i) = i\nenddo\n"
	for _, tc := range []struct{ body, at string }{
		{"do i = 1, n\nb(i) = a(i + 5)\nenddo\n", "9:8: a: subscript"},
		{"x = sum(a(1:n + 5))\n", "8:5: a: subscript 1:23"}, // a SUM section past the bounds, at the call
	} {
		for _, procs := range []int{4, 9} { // single shard, and sharded where cores allow
			resp, _ := postCompile(t, ts, map[string]any{
				"source": head + tc.body + "end\n", "params": map[string]int{"n": 18}, "procs": procs, "simulate": true,
			})
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("procs=%d: status = %d, want 400", procs, resp.StatusCode)
			}
			var body map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if body["req_id"] == "" || body["req_id"] != resp.Header.Get("X-Request-Id") {
				t.Errorf("procs=%d: req_id %q, header %q", procs, body["req_id"], resp.Header.Get("X-Request-Id"))
			}
			for _, want := range []string{tc.at, "outside the declared 1:18"} {
				if !strings.Contains(body["error"], want) {
					t.Errorf("procs=%d: error %q lacks %q", procs, body["error"], want)
				}
			}
		}
	}
	resp, out := postCompile(t, ts, map[string]any{
		"source": stencilSrc, "params": map[string]int{"n": 8, "steps": 1}, "procs": 4, "simulate": true,
	})
	if resp.StatusCode != http.StatusOK || out.Simulate == nil {
		t.Fatalf("request after the failed ones: status %d, simulate %v", resp.StatusCode, out.Simulate)
	}
}

// TestDeeplyNestedSourceIs400: a body of a million nested parentheses —
// half gcaod's body limit — once overflowed the parser's goroutine stack,
// a fatal error no recover catches. It is now a positioned 400 carrying
// the request id, and the daemon serves the next request.
func TestDeeplyNestedSourceIs400(t *testing.T) {
	_, ts := testServer(t)
	const depth = 1000000
	src := "routine r()\nreal x\nx = " + strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth) + "\nend\n"
	resp, _ := postCompile(t, ts, map[string]any{"source": src, "procs": 4})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["req_id"] == "" || body["req_id"] != resp.Header.Get("X-Request-Id") {
		t.Errorf("req_id %q, header %q", body["req_id"], resp.Header.Get("X-Request-Id"))
	}
	if want := "3:10005: nesting deeper than 10000 levels"; !strings.Contains(body["error"], want) {
		t.Errorf("error %q lacks %q", body["error"], want)
	}
	resp, out := postCompile(t, ts, map[string]any{
		"source": stencilSrc, "params": map[string]int{"n": 8, "steps": 1}, "procs": 4,
	})
	if resp.StatusCode != http.StatusOK || out.Messages <= 0 {
		t.Fatalf("request after the nested one: status %d, %d messages", resp.StatusCode, out.Messages)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var h struct {
		Status   string  `json:"status"`
		Uptime   float64 `json:"uptime_seconds"`
		Requests int64   `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Uptime < 0 {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestCompileCacheHit pins the tentpole behavior end to end: a
// repeated identical request is served from the compilation cache, the
// response says so, and the gcao_cache_* families report it.
func TestCompileCacheHit(t *testing.T) {
	_, ts := testServer(t)
	body := map[string]any{
		"source": stencilSrc,
		"params": map[string]int{"n": 12, "steps": 2},
		"procs":  4,
	}
	resp1, out1 := postCompile(t, ts, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first compile status = %d", resp1.StatusCode)
	}
	if out1.Cache == nil || out1.Cache.Compile != "miss" || out1.Cache.Place != "miss" {
		t.Fatalf("first request cache doc = %+v, want miss/miss", out1.Cache)
	}
	resp2, out2 := postCompile(t, ts, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second compile status = %d", resp2.StatusCode)
	}
	if out2.Cache == nil || out2.Cache.Compile != "hit" || out2.Cache.Place != "hit" {
		t.Fatalf("second request cache doc = %+v, want hit/hit", out2.Cache)
	}
	if out1.Messages != out2.Messages {
		t.Fatalf("cached placement diverged: %d vs %d messages", out1.Messages, out2.Messages)
	}
	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mResp.Body.Close()
	text, _ := io.ReadAll(mResp.Body)
	if err := obs.CheckPromText(text); err != nil {
		t.Fatalf("/metrics invalid with cache families: %v", err)
	}
	for _, want := range []string{
		`gcao_cache_hits_total{tier="compile"} 1`,
		`gcao_cache_hits_total{tier="place"} 1`,
		`gcao_cache_misses_total{tier="compile"} 1`,
		`gcao_cache_entries{tier="compile"} 1`,
		`gcao_pipeline_counter_total{name="cache.compile.hit"} 1`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The operator view agrees.
	cResp, err := http.Get(ts.URL + "/debug/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer cResp.Body.Close()
	var dbg struct {
		Cache struct {
			Compile struct {
				Hits   int64 `json:"hits"`
				Misses int64 `json:"misses"`
			} `json:"compile"`
		} `json:"cache"`
		Scheduler struct {
			Submitted int64 `json:"submitted"`
		} `json:"scheduler"`
	}
	if err := json.NewDecoder(cResp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	if dbg.Cache.Compile.Hits != 1 || dbg.Cache.Compile.Misses != 1 {
		t.Fatalf("/debug/cache compile tier = %+v", dbg.Cache.Compile)
	}
	if dbg.Scheduler.Submitted != 2 {
		t.Fatalf("/debug/cache scheduler submitted = %d, want 2", dbg.Scheduler.Submitted)
	}
}

// TestPayloadTooLarge413 pins the oversized-body contract: a request
// beyond -max-body is a 413, not a generic 400 or 500.
func TestPayloadTooLarge413(t *testing.T) {
	s := newServer(serverConfig{
		reqTimeout: 30 * time.Second,
		maxBody:    512,
		logW:       io.Discard,
		logLevel:   slog.LevelError,
	})
	defer s.close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	raw, _ := json.Marshal(map[string]any{
		"source": stencilSrc + strings.Repeat("\n! padding", 200),
		"procs":  4,
	})
	resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}
	// A body inside the bound still compiles.
	small, _ := json.Marshal(map[string]any{
		"source": "routine tiny(n)\nreal a(n)\n!hpf$ distribute (block) :: a\ndo i = 1, n\na(i) = 1.0\nenddo\nend",
		"params": map[string]int{"n": 8}, "procs": 2,
	})
	resp2, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("in-bound body status = %d, want 200", resp2.StatusCode)
	}
}

// blockingServer builds a server whose compile jobs block until the
// returned release function is called, with a single worker and a
// single queue slot — the deterministic saturation fixture.
func blockingServer(t *testing.T) (*server, *httptest.Server, func()) {
	t.Helper()
	s := newServer(serverConfig{
		reqTimeout: 30 * time.Second,
		workers:    1,
		queueDepth: 1,
		logW:       io.Discard,
		logLevel:   slog.LevelError,
	})
	release := make(chan struct{})
	s.testHook = func() { <-release }
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.close)
	var once sync.Once
	return s, ts, func() { once.Do(func() { close(release) }) }
}

// saturate fills the blocking server: one request active on the only
// worker, one sitting in the only queue slot.
func saturate(t *testing.T, s *server, ts *httptest.Server, done chan<- int) {
	t.Helper()
	raw, _ := json.Marshal(map[string]any{
		"source": stencilSrc, "params": map[string]int{"n": 8, "steps": 1}, "procs": 4,
	})
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(raw))
			if err != nil {
				done <- -1
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.pool.Stats()
		if st.Active == 1 && st.Queued == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never saturated: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueOverflow429 pins load shedding: with the worker busy and
// the queue full, the next request is rejected with 429 + Retry-After
// instead of queueing unboundedly.
func TestQueueOverflow429(t *testing.T) {
	s, ts, release := blockingServer(t)
	done := make(chan int, 2)
	saturate(t, s, ts, done)

	raw, _ := json.Marshal(map[string]any{
		"source": stencilSrc, "params": map[string]int{"n": 8, "steps": 1}, "procs": 4,
	})
	resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}

	release()
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("blocked request %d finished with %d, want 200", i, code)
		}
	}
	if got := s.pool.Stats().Rejected; got != 1 {
		t.Fatalf("pool rejected = %d, want 1", got)
	}
}

// TestCompileIsTheOnlyCompileRoute: one request is one job. The route
// that took many /compile bodies in one request (concurrent /compile
// requests do the same) is gone: /compile/batch answers 404 with a
// request id, is counted under the bounded label "other", and submits
// nothing to the pool.
func TestCompileIsTheOnlyCompileRoute(t *testing.T) {
	s, ts := testServer(t)
	item := map[string]any{"source": stencilSrc, "params": map[string]int{"n": 8, "steps": 1}, "procs": 4}
	raw, err := json.Marshal(map[string]any{"items": []any{item, item}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/compile/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get("X-Request-Id") == "" {
		t.Fatalf("/compile/batch: status %d, X-Request-Id %q, want 404 with an id", resp.StatusCode, resp.Header.Get("X-Request-Id"))
	}
	if text := scrape(t, ts); !strings.Contains(text, `gcao_http_requests_total{code="404",route="other"} 1`+"\n") {
		t.Errorf("/compile/batch not counted as a 404 under other:\n%s", text)
	}
	if st := s.pool.Stats(); st.Submitted != 0 {
		t.Errorf("pool submitted = %d, want 0", st.Submitted)
	}
}

// TestHealthzVersion pins the build-identity surface.
func TestHealthzVersion(t *testing.T) {
	s := newServer(serverConfig{
		reqTimeout: time.Second,
		version:    "abc123def456",
		logW:       io.Discard,
		logLevel:   slog.LevelError,
	})
	defer s.close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status  string `json:"status"`
		Version string `json:"version"`
		Go      string `json:"go"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Version != "abc123def456" {
		t.Fatalf("healthz version = %q", h.Version)
	}
	if !strings.HasPrefix(h.Go, "go") {
		t.Fatalf("healthz go = %q", h.Go)
	}
}

// TestCompileTimeout pins the per-request bound: a request that cannot
// finish inside the budget gets a 503 from the timeout handler.
func TestCompileTimeout(t *testing.T) {
	s := newServer(serverConfig{
		reqTimeout: 1 * time.Nanosecond,
		logW:       io.Discard,
		logLevel:   slog.LevelError,
	})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	raw, _ := json.Marshal(map[string]any{
		"source": stencilSrc, "params": map[string]int{"n": 64, "steps": 4}, "procs": 4,
	})
	resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timeout status = %d, want 503", resp.StatusCode)
	}
}

// TestExpiredCompileRunsNoPlacement: a compile job honours its deadline.
// Request A (strategy "all") holds the only worker past its deadline;
// request B waits in the queue past its own. Both get their 503, B's job
// never reaches the compile, and A's stops before its first placement:
// the placement cache records no entry and no miss.
func TestExpiredCompileRunsNoPlacement(t *testing.T) {
	s := newServer(serverConfig{
		reqTimeout: 200 * time.Millisecond,
		workers:    1,
		queueDepth: 1,
		logW:       io.Discard,
		logLevel:   slog.LevelError,
	})
	t.Cleanup(s.close)
	entered, release := make(chan struct{}, 2), make(chan struct{})
	s.testHook = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	post := func(n int, strategy string, code chan<- int) {
		raw, _ := json.Marshal(map[string]any{
			"source": stencilSrc, "params": map[string]int{"n": n, "steps": 1}, "procs": 4, "strategy": strategy,
		})
		resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(raw))
		if err != nil {
			code <- -1
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}
	codeA, codeB := make(chan int, 1), make(chan int, 1)
	go post(8, "all", codeA)
	<-entered // A holds the worker
	go post(12, "comb", codeB)
	if got := <-codeB; got != http.StatusServiceUnavailable {
		t.Fatalf("queued request past its deadline: status %d, want 503", got)
	}
	if got := <-codeA; got != http.StatusServiceUnavailable {
		t.Fatalf("running request past its deadline: status %d, want 503", got)
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for st := s.pool.Stats(); st.Active+st.Queued > 0; st = s.pool.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("pool never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if len(entered) != 0 {
		t.Error("the queued job ran its compile after its deadline")
	}
	if st := s.cache.Stats().Place; st.Entries != 0 || st.Misses != 0 {
		t.Errorf("expired jobs placed: placement cache %+v", st)
	}
}

// TestCompileAllStrategies: strategy "all" places the three versions
// of one cached compilation and reports them side by side; the
// per-version results — placement and estimate — must match three
// individual requests.
func TestCompileAllStrategies(t *testing.T) {
	_, ts := testServer(t)
	resp, out := postCompile(t, ts, map[string]any{
		"source":   stencilSrc,
		"params":   map[string]int{"n": 12, "steps": 2},
		"procs":    4,
		"strategy": "all",
		"estimate": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status = %d", resp.StatusCode)
	}
	if out.Strategy != "all" || len(out.Versions) != 3 {
		t.Fatalf("want 3 versions, got %+v", out)
	}
	wantOrder := []string{"orig", "nored", "comb"}
	for i, v := range out.Versions {
		if v.Strategy != wantOrder[i] {
			t.Fatalf("version %d = %s, want %s", i, v.Strategy, wantOrder[i])
		}
		if v.Messages <= 0 || v.Estimate == nil || v.Estimate.NetSeconds <= 0 {
			t.Fatalf("version %s incomplete: %+v", v.Strategy, v)
		}
	}
	if out.Versions[2].Messages > out.Versions[0].Messages {
		t.Errorf("comb placed %d messages, orig %d — combining must not add messages",
			out.Versions[2].Messages, out.Versions[0].Messages)
	}
	if out.Messages != out.Versions[2].Messages {
		t.Errorf("scalar fields should mirror comb: %d vs %d", out.Messages, out.Versions[2].Messages)
	}
	// Each version must agree with a dedicated single-strategy request.
	for _, strat := range wantOrder {
		_, single := postCompile(t, ts, map[string]any{
			"source":   stencilSrc,
			"params":   map[string]int{"n": 12, "steps": 2},
			"procs":    4,
			"strategy": strat,
			"estimate": true,
		})
		var got versionDoc
		for _, v := range out.Versions {
			if v.Strategy == strat {
				got = v
			}
		}
		if single.Messages != got.Messages {
			t.Errorf("%s: all-mode %d messages, single-mode %d", strat, got.Messages, single.Messages)
		}
		if single.Estimate == nil || *single.Estimate != *got.Estimate {
			t.Errorf("%s: all-mode estimate %+v, single-mode %+v", strat, got.Estimate, single.Estimate)
		}
	}
}

// TestKnownSourceNewSize: the second size of a source the daemon has
// compiled is a compile-tier miss served from the skeleton tier — no
// front-end or structural span on the request, the same answer a daemon
// that never saw the source gives — and every surface that shows the
// tiers shows the third: the reply's cache object (only when the compile
// tier missed), the request's counters, the compile phase of the flight
// record, /debug/cache and the gcao_cache_* families.
func TestKnownSourceNewSize(t *testing.T) {
	_, ts := testServer(t)
	body := func(n int) map[string]any {
		return map[string]any{
			"source": stencilSrc, "params": map[string]int{"n": n, "steps": 2},
			"procs": 4, "estimate": true,
		}
	}
	_, first := postCompile(t, ts, body(12))
	if first.Cache == nil || first.Cache.Compile != "miss" || first.Cache.Skeleton != "miss" {
		t.Fatalf("first size: cache doc %+v, want compile and skeleton misses", first.Cache)
	}
	resp, second := postCompile(t, ts, body(16))
	if second.Cache == nil || second.Cache.Compile != "miss" || second.Cache.Place != "miss" || second.Cache.Skeleton != "hit" {
		t.Fatalf("second size: cache doc %+v, want a compile miss on a skeleton hit", second.Cache)
	}
	rec := fetchRecord(t, ts, resp.Header.Get("X-Request-Id"))
	ran := map[string]bool{}
	for _, sp := range rec.Spans {
		ran[sp.Name] = true
	}
	for _, name := range []string{"parse", "scalarize", "cfg", "dom", "ssa"} {
		if ran[name] {
			t.Errorf("the second size of a known source ran %s", name)
		}
	}
	if !ran["sem"] || !ran["entries"] || !ran["level-tables"] {
		t.Errorf("spans %v: sem and the instantiate half must run", ran)
	}
	var facet obs.MetricsDoc
	fetchFacet(t, ts, rec.ID, "decisions", &facet)
	if facet.Counters["cache.skeleton.hit"] != 1 {
		t.Errorf("request counters %v", facet.Counters)
	}
	if ph := findSpan(t, rec, "compile", 0); ph.Attrs["cache"] != "miss" || ph.Attrs["skeleton"] != "hit" {
		t.Errorf("flight record's compile phase %+v: want cache=miss skeleton=hit", ph)
	}

	// A daemon that never saw the source answers the same.
	_, fresh := postCompile(t, func() *httptest.Server { _, ts := testServer(t); return ts }(), body(16))
	if fresh.Cache.Skeleton != "miss" || fresh.Messages != second.Messages ||
		!reflect.DeepEqual(fresh.Counts, second.Counts) || !reflect.DeepEqual(fresh.Estimate, second.Estimate) {
		t.Errorf("from the skeleton: %d messages %v %+v; from the text: %d messages %v %+v",
			second.Messages, second.Counts, second.Estimate, fresh.Messages, fresh.Counts, fresh.Estimate)
	}

	// A compile-tier hit never reaches the skeleton tier, and says nothing
	// about it.
	raw, _ := json.Marshal(body(16))
	hResp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer hResp.Body.Close()
	var warm struct {
		Cache map[string]string `json:"cache"`
	}
	if err := json.NewDecoder(hResp.Body).Decode(&warm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Cache, map[string]string{"compile": "hit", "place": "hit"}) {
		t.Errorf("warm reply's cache object: %v", warm.Cache)
	}

	var dbg struct {
		Cache map[string]struct {
			Hits    int64 `json:"hits"`
			Misses  int64 `json:"misses"`
			Entries int   `json:"entries"`
		} `json:"cache"`
	}
	getJSON(t, ts.URL+"/debug/cache", &dbg)
	if sk := dbg.Cache["skeleton"]; len(dbg.Cache) != 4 || sk.Hits != 1 || sk.Misses != 1 || sk.Entries != 1 || dbg.Cache["compile"].Misses != 2 {
		t.Errorf("/debug/cache = %+v, want compile, place, body and a skeleton tier with one entry hit once", dbg.Cache)
	}
	if b := dbg.Cache["body"]; b.Hits != 1 || b.Misses != 2 || b.Entries != 2 {
		t.Errorf("/debug/cache body tier %+v: want the repeated body hit, two bodies kept", b)
	}
	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mResp.Body.Close()
	metrics, _ := io.ReadAll(mResp.Body)
	for _, want := range []string{
		`gcao_cache_hits_total{tier="skeleton"} 1`,
		`gcao_cache_misses_total{tier="skeleton"} 1`,
		`gcao_cache_entries{tier="skeleton"} 1`,
		`gcao_pipeline_counter_total{name="cache.skeleton.hit"} 1`,
		`gcao_pipeline_counter_total{name="cache.skeleton.miss"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
