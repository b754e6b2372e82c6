package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gcao/internal/obs"
	"gcao/internal/obs/reqtrace"
)

// TestRequestIDEverywhere pins the ingress contract: every response —
// success, client error, shed, timeout — carries an X-Request-Id
// header, and every JSON error body repeats the same id.
func TestRequestIDEverywhere(t *testing.T) {
	_, ts := testServer(t)

	// Success paths: header present on compile and on plain GETs.
	resp, out := postCompile(t, ts, map[string]any{
		"source": stencilSrc, "params": map[string]int{"n": 8, "steps": 1}, "procs": 4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status = %d", resp.StatusCode)
	}
	hdr := resp.Header.Get("X-Request-Id")
	if hdr == "" || hdr != out.ReqID {
		t.Fatalf("X-Request-Id %q != body req_id %q", hdr, out.ReqID)
	}
	for _, path := range []string{"/healthz", "/metrics", "/debug/cache", "/debug/flightrecorder"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.Header.Get("X-Request-Id") == "" {
			t.Errorf("%s response missing X-Request-Id", path)
		}
	}

	// Error paths: body req_id matches the header.
	checkErr := func(name string, resp *http.Response, wantStatus int) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s status = %d, want %d", name, resp.StatusCode, wantStatus)
		}
		var body struct {
			ReqID string `json:"req_id"`
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s body not JSON: %v", name, err)
		}
		id := resp.Header.Get("X-Request-Id")
		if id == "" || body.ReqID != id {
			t.Fatalf("%s: header id %q, body id %q", name, id, body.ReqID)
		}
		if body.Error == "" {
			t.Fatalf("%s: empty error message", name)
		}
	}

	// 400: unknown strategy.
	raw, _ := json.Marshal(map[string]any{
		"source": stencilSrc, "params": map[string]int{"n": 8, "steps": 1},
		"procs": 4, "strategy": "bogus",
	})
	r400, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	checkErr("400", r400, http.StatusBadRequest)

	// 400: bad query parameter on a debug route.
	r400q, err := http.Get(ts.URL + "/debug/flightrecorder?limit=x")
	if err != nil {
		t.Fatal(err)
	}
	checkErr("400 limit", r400q, http.StatusBadRequest)

	// 404: unknown flight record.
	r404, err := http.Get(ts.URL + "/debug/flightrecorder/r999999")
	if err != nil {
		t.Fatal(err)
	}
	checkErr("404", r404, http.StatusNotFound)

	// 413: oversized body (valid JSON shape, so the size limit trips
	// before a syntax error can).
	big := []byte(`{"source":"` + strings.Repeat("x", 5<<20) + `"}`)
	r413, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	checkErr("413", r413, http.StatusRequestEntityTooLarge)
}

// TestRequestIDOnTimeoutAnd429 covers the two shed paths: a timed-out
// compile (503) and a queue overflow (429) both carry the id in header
// and body, and the 429's Retry-After is a derived integer in [1,30].
func TestRequestIDOnTimeoutAnd429(t *testing.T) {
	s := newServer(serverConfig{
		reqTimeout: time.Nanosecond,
		logW:       io.Discard,
		logLevel:   slog.LevelError,
	})
	defer s.close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	raw, _ := json.Marshal(map[string]any{
		"source": stencilSrc, "params": map[string]int{"n": 8, "steps": 1}, "procs": 4,
	})
	resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		ReqID string `json:"req_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("timeout body not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timeout status = %d, want 503", resp.StatusCode)
	}
	if id := resp.Header.Get("X-Request-Id"); id == "" || id != body.ReqID {
		t.Fatalf("timeout: header id %q, body id %q", id, body.ReqID)
	}

	sb, tsb, release := blockingServer(t)
	done := make(chan int, 2)
	saturate(t, sb, tsb, done)
	resp2, err := http.Post(tsb.URL+"/compile", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var body2 struct {
		ReqID string `json:"req_id"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&body2); err != nil {
		t.Fatalf("429 body not JSON: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp2.StatusCode)
	}
	if id := resp2.Header.Get("X-Request-Id"); id == "" || id != body2.ReqID {
		t.Fatalf("429: header id %q, body id %q", id, body2.ReqID)
	}
	ra, err := strconv.Atoi(resp2.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 30 {
		t.Fatalf("Retry-After = %q, want integer in [1,30]", resp2.Header.Get("Retry-After"))
	}
	release()
	<-done
	<-done
}

// TestTraceparentRoundTrip pins W3C trace-context propagation: a valid
// inbound traceparent's trace id is adopted and echoed with the
// daemon's root span id; the retained trace records the remote parent.
func TestTraceparentRoundTrip(t *testing.T) {
	_, ts := testServer(t)
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	const parent = "00f067aa0ba902b7"
	inbound := "00-" + traceID + "-" + parent + "-01"

	raw, _ := json.Marshal(map[string]any{
		"source": stencilSrc, "params": map[string]int{"n": 8, "steps": 1}, "procs": 4,
	})
	req, _ := http.NewRequest("POST", ts.URL+"/compile", bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", inbound)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status = %d", resp.StatusCode)
	}
	echoed := resp.Header.Get("Traceparent")
	gotTrace, gotSpan, _, ok := reqtrace.ParseTraceparent(echoed)
	if !ok {
		t.Fatalf("echoed traceparent %q invalid", echoed)
	}
	if gotTrace != traceID {
		t.Fatalf("echoed trace id %q, want %q (adopted)", gotTrace, traceID)
	}
	if gotSpan == parent {
		t.Fatal("echoed span id is the client's parent; want the daemon's root span")
	}

	id := resp.Header.Get("X-Request-Id")
	var rec reqtrace.Record
	getJSON(t, ts.URL+"/debug/flightrecorder/"+id, &rec)
	if rec.TraceID != traceID {
		t.Fatalf("flight record trace id %q, want %q", rec.TraceID, traceID)
	}
	if rec.RemoteParent != parent {
		t.Fatalf("flight record remote parent %q, want %q", rec.RemoteParent, parent)
	}

	// A malformed header is ignored: a fresh valid trace is minted.
	req2, _ := http.NewRequest("POST", ts.URL+"/compile", bytes.NewReader(raw))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set("traceparent", "00-zzzz-bad-01")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if _, _, _, ok := reqtrace.ParseTraceparent(resp2.Header.Get("Traceparent")); !ok {
		t.Fatalf("minted traceparent %q invalid", resp2.Header.Get("Traceparent"))
	}
}

// phaseNames are the request phases, the keys of a record's phases
// summary.
var phaseNames = map[string]bool{
	"ingress": true, "queue.wait": true, "compile": true, "place": true,
	"estimate": true, "simulate": true, "native.exec": true, "finalize": true,
}

// within reports whether span inner lies inside span outer.
func within(outer, inner obs.Span) bool {
	return outer.StartUS <= inner.StartUS && inner.StartUS+inner.DurUS <= outer.StartUS+outer.DurUS
}

// checkRecord asserts what a retained record promises: its request phases
// sum to the reported wall time within 5%, the phases summary is keyed by
// phase names alone, and every pipeline span lies inside a phase, below it.
func checkRecord(t *testing.T, rec reqtrace.Record) {
	t.Helper()
	if rec.WallUS <= 0 {
		t.Fatalf("record %s has no wall time", rec.ID)
	}
	if len(rec.Phases) == 0 {
		t.Fatalf("record %s has no phases", rec.ID)
	}
	var sum int64
	for name, d := range rec.Phases {
		if !phaseNames[name] {
			t.Errorf("record %s: phases summary keyed by %q", rec.ID, name)
		}
		sum += d
	}
	diff := rec.WallUS - sum
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.05*float64(rec.WallUS) {
		t.Errorf("record %s: phases sum %dus vs wall %dus (gap %dus > 5%%): %v",
			rec.ID, sum, rec.WallUS, diff, rec.Phases)
	}
	for _, sp := range rec.Spans {
		if sp.Phase {
			continue
		}
		inside := false
		for _, ph := range rec.Spans {
			inside = inside || ph.Phase && within(ph, sp)
		}
		if !inside || sp.Depth < 1 {
			t.Errorf("record %s: span %s [%d +%d] at depth %d lies in no phase", rec.ID, sp.Name, sp.StartUS, sp.DurUS, sp.Depth)
		}
	}
}

// phaseKeys returns a record's phase names, sorted and space-separated.
func phaseKeys(rec reqtrace.Record) string {
	keys := make([]string, 0, len(rec.Phases))
	for k := range rec.Phases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// findSpan returns the record's span of the given name, which must be
// there at the given depth.
func findSpan(t *testing.T, rec reqtrace.Record, name string, depth int) obs.Span {
	t.Helper()
	for _, sp := range rec.Spans {
		if sp.Name == name {
			if sp.Depth != depth {
				t.Errorf("record %s: span %s at depth %d, want %d", rec.ID, name, sp.Depth, depth)
			}
			return sp
		}
	}
	t.Fatalf("record %s has no span %s: %+v", rec.ID, name, rec.Spans)
	return obs.Span{}
}

// fetchRecord resolves a request id at the flight recorder.
func fetchRecord(t *testing.T, ts *httptest.Server, id string) reqtrace.Record {
	t.Helper()
	var rec reqtrace.Record
	if code := getJSON(t, ts.URL+"/debug/flightrecorder/"+id, &rec); code != http.StatusOK {
		t.Fatalf("flight record %s status = %d", id, code)
	}
	if rec.ID != id || len(rec.Spans) == 0 {
		t.Fatalf("flight record %s incomplete: %+v", id, rec)
	}
	return rec
}

// fetchFacet decodes one facet of a request's flight record into out.
func fetchFacet(t *testing.T, ts *httptest.Server, id, facet string, out any) {
	t.Helper()
	if code := getJSON(t, ts.URL+"/debug/flightrecorder/"+id+"?facet="+facet, out); code != http.StatusOK {
		t.Fatalf("flight record %s facet %s status = %d", id, facet, code)
	}
}

// TestRetainedRecordSpans: following a request id to its flight record
// shows the request's phases and, inside them, the pipeline spans that
// ran — for a compile miss, a hit, strategy "all" and a request that
// timed out.
func TestRetainedRecordSpans(t *testing.T) {
	_, ts := testServer(t)
	body := func(n int, strategy string) map[string]any {
		return map[string]any{"source": stencilSrc, "params": map[string]int{"n": n, "steps": 2}, "procs": 4, "strategy": strategy}
	}

	// A miss: place → place:comb → greedy-choose, and the phases say
	// what the cache did.
	resp, _ := postCompile(t, ts, body(12, "comb"))
	miss := fetchRecord(t, ts, resp.Header.Get("X-Request-Id"))
	checkRecord(t, miss)
	if got := phaseKeys(miss); got != "compile finalize ingress place queue.wait" {
		t.Errorf("miss phases %q", got)
	}
	place, placeComb := findSpan(t, miss, "place", 0), findSpan(t, miss, "place:comb", 1)
	if greedy := findSpan(t, miss, "greedy-choose", 2); !within(place, placeComb) || !within(placeComb, greedy) {
		t.Errorf("place %+v, place:comb %+v, greedy-choose %+v do not nest", place, placeComb, greedy)
	}
	if compile := findSpan(t, miss, "compile", 0); compile.Attrs["cache"] != "miss" || place.Attrs["cache"] != "miss" {
		t.Errorf("phase attributes: compile %v, place %v", compile.Attrs, place.Attrs)
	}

	// A hit ran no pipeline span.
	resp, _ = postCompile(t, ts, body(12, "comb"))
	hit := fetchRecord(t, ts, resp.Header.Get("X-Request-Id"))
	checkRecord(t, hit)
	for _, sp := range hit.Spans {
		if !sp.Phase {
			t.Errorf("a hit ran %s", sp.Name)
		}
	}

	// Strategy "all": three sibling placements at one depth inside place.
	resp, _ = postCompile(t, ts, body(13, "all"))
	all := fetchRecord(t, ts, resp.Header.Get("X-Request-Id"))
	checkRecord(t, all)
	place = findSpan(t, all, "place", 0)
	for _, v := range []string{"orig", "nored", "comb"} {
		if sp := findSpan(t, all, "place:"+v, 1); !within(place, sp) {
			t.Errorf("place:%s %+v outside place %+v", v, sp, place)
		}
	}
	// Estimated, strategy "all" estimates under its own phase, as a
	// single strategy does.
	estAll := body(15, "all")
	estAll["estimate"] = true
	resp, _ = postCompile(t, ts, estAll)
	if got := phaseKeys(fetchRecord(t, ts, resp.Header.Get("X-Request-Id"))); got != "compile estimate finalize ingress place queue.wait" {
		t.Errorf("estimated all phases %q", got)
	}

	// A timeout: the worker is still in compile when the handler answers,
	// and the record ends with finalize.
	s := newServer(serverConfig{reqTimeout: 50 * time.Millisecond, workers: 1, logW: io.Discard})
	release := make(chan struct{})
	s.testHook = func() { <-release }
	slow := httptest.NewServer(s.handler())
	t.Cleanup(slow.Close)
	t.Cleanup(s.close)
	t.Cleanup(func() { close(release) })
	resp, _ = postCompile(t, slow, body(12, "comb"))
	timedOut := fetchRecord(t, slow, resp.Header.Get("X-Request-Id"))
	checkRecord(t, timedOut)
	if timedOut.Status != http.StatusServiceUnavailable || !strings.HasSuffix(phaseKeys(timedOut), "finalize ingress queue.wait") {
		t.Errorf("timed-out record: status %d, phases %q", timedOut.Status, phaseKeys(timedOut))
	}
}

// TestFlightRecorderResolvesCompile is the tentpole acceptance check:
// for miss, hit AND dedup cache outcomes, the X-Request-Id returned by
// /compile resolves at /debug/flightrecorder/{id} to spans whose phase
// durations account for the reported wall time within 5%.
func TestFlightRecorderResolvesCompile(t *testing.T) {
	type barrier struct {
		n  atomic.Int32
		ch chan struct{}
	}
	var hook atomic.Pointer[barrier]
	s := newServer(serverConfig{
		reqTimeout: 30 * time.Second,
		workers:    2,
		queueDepth: 8,
		logW:       io.Discard,
		logLevel:   slog.LevelError,
	})
	s.testHook = func() {
		b := hook.Load()
		if b == nil {
			return
		}
		if b.n.Add(1) == 2 {
			close(b.ch)
		}
		<-b.ch
	}
	defer s.close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Miss and dedup: two identical concurrent requests held at a
	// barrier until both reached a worker, so their cache probes
	// overlap and singleflight coalesces one onto the other. The
	// source is large enough (~80 loop nests) that its compile outlasts
	// a scheduler quantum, so the second goroutine probes mid-compile
	// even on a single CPU; the content hash changes per attempt so a
	// rare non-overlap just retries cleanly.
	var big strings.Builder
	big.WriteString("routine big(n, steps)\nreal a(0:n+1, 0:n+1), b(0:n+1, 0:n+1)\n!hpf$ distribute (block, block) :: a, b\n")
	for k := 0; k < 40; k++ {
		big.WriteString("do i = 1, n\ndo j = 1, n\nb(i, j) = 0.25 * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))\nenddo\nenddo\n")
		big.WriteString("do i = 1, n\ndo j = 1, n\na(i, j) = b(i, j)\nenddo\nenddo\n")
	}
	big.WriteString("end\n")
	var missRec, dedupRec reqtrace.Record
	var hitBody map[string]any
	found := false
	for attempt := 0; attempt < 5 && !found; attempt++ {
		src := big.String() + fmt.Sprintf("\n! attempt %d\n", attempt)
		body := map[string]any{
			"source": src, "params": map[string]int{"n": 10, "steps": 1},
			"procs": 4, "strategy": "comb",
		}
		hook.Store(&barrier{ch: make(chan struct{})})
		type result struct {
			id   string
			out  compileResponse
			code int
		}
		results := make(chan result, 2)
		for i := 0; i < 2; i++ {
			go func() {
				raw, _ := json.Marshal(body)
				resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(raw))
				if err != nil {
					results <- result{code: -1}
					return
				}
				defer resp.Body.Close()
				var out compileResponse
				_ = json.NewDecoder(resp.Body).Decode(&out)
				results <- result{id: resp.Header.Get("X-Request-Id"), out: out, code: resp.StatusCode}
			}()
		}
		r1, r2 := <-results, <-results
		hook.Store(nil)
		if r1.code != http.StatusOK || r2.code != http.StatusOK {
			t.Fatalf("concurrent compile statuses = %d, %d", r1.code, r2.code)
		}
		outcomes := map[string]result{
			r1.out.Cache.Compile: r1,
			r2.out.Cache.Compile: r2,
		}
		if m, okM := outcomes["miss"]; okM {
			if d, okD := outcomes["dedup"]; okD {
				missRec = fetchRecord(t, ts, m.id)
				dedupRec = fetchRecord(t, ts, d.id)
				hitBody = body
				found = true
			}
		}
	}
	if !found {
		t.Fatal("never observed a miss+dedup pair in 5 attempts")
	}
	checkRecord(t, missRec)
	checkRecord(t, dedupRec)
	if missRec.Cache != "miss" || dedupRec.Cache != "dedup" {
		t.Fatalf("record cache outcomes = %q, %q", missRec.Cache, dedupRec.Cache)
	}
	for _, rec := range []reqtrace.Record{missRec, dedupRec} {
		for _, phase := range []string{"ingress", "queue.wait", "compile", "place", "finalize"} {
			if _, ok := rec.Phases[phase]; !ok {
				t.Errorf("record %s missing phase %q: %v", rec.ID, phase, rec.Phases)
			}
		}
	}

	// Hit: repeat the successful request after the dust settles.
	resp, out := postCompile(t, ts, hitBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hit compile status = %d", resp.StatusCode)
	}
	if out.Cache == nil || out.Cache.Compile != "hit" {
		t.Fatalf("expected compile cache hit, got %+v", out.Cache)
	}
	hitRec := fetchRecord(t, ts, resp.Header.Get("X-Request-Id"))
	checkRecord(t, hitRec)
	if hitRec.Cache != "hit" {
		t.Fatalf("hit record cache = %q", hitRec.Cache)
	}
}

// TestFlightRecorderRetainsErrors pins the slow/errored store: a 400
// lands in the slow listing even though it was fast, and its spans
// resolve by id.
func TestFlightRecorderRetainsErrors(t *testing.T) {
	_, ts := testServer(t)
	raw, _ := json.Marshal(map[string]any{
		"source": "not hpf at all", "params": map[string]int{}, "procs": 4,
	})
	resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-Id")

	var listing struct {
		Recent []reqtrace.Record `json:"recent"`
		Slow   []reqtrace.Record `json:"slow"`
		Stats  struct {
			Added    int64 `json:"added"`
			Retained int64 `json:"retained"`
		} `json:"stats"`
	}
	getJSON(t, ts.URL+"/debug/flightrecorder", &listing)
	foundSlow := false
	for _, rec := range listing.Slow {
		if rec.ID == id {
			foundSlow = true
			if rec.Status != http.StatusBadRequest || rec.Error == "" {
				t.Fatalf("retained error record incomplete: %+v", rec)
			}
			if rec.Spans != nil {
				t.Fatal("listing should carry summaries, not spans")
			}
		}
	}
	if !foundSlow {
		t.Fatalf("errored request %s not in slow store: %+v", id, listing.Slow)
	}
	if listing.Stats.Retained < 1 {
		t.Fatalf("stats retained = %d", listing.Stats.Retained)
	}
	fetchRecord(t, ts, id)
}

// postForError posts body to /compile and, when the answer is not a
// 200, decodes its error document.
func postForError(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, map[string]string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]string
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
	}
	return resp, doc
}

// TestPanicOnWorkerIs500: a panic on a pool worker — an invariant
// tripping somewhere in analysis, placement or lowering — costs that
// request a 500 carrying its req_id, leaves the stack in its flight
// record, and leaves the daemon and the worker serving: the next
// request on the same (single) worker is a 200.
func TestPanicOnWorkerIs500(t *testing.T) {
	s := newServer(serverConfig{workers: 1, logW: io.Discard})
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.close)
	body, _ := json.Marshal(map[string]any{
		"source": stencilSrc, "params": map[string]int{"n": 12, "steps": 2}, "procs": 4,
	})
	post := func() (*http.Response, map[string]string) { return postForError(t, ts, body) }

	s.testHook = func() { panic("dist: block size of an undistributed dimension") }
	resp, doc := post()
	id := resp.Header.Get("X-Request-Id")
	if resp.StatusCode != http.StatusInternalServerError || id == "" || doc["req_id"] != id {
		t.Fatalf("panicking request: status %d, header id %q, body %v", resp.StatusCode, id, doc)
	}
	if !strings.Contains(doc["error"], "dist: block size") || strings.Contains(doc["error"], "goroutine") {
		t.Errorf("error body = %q, want the panic text without the stack", doc["error"])
	}
	var rec reqtrace.Record
	if code := getJSON(t, ts.URL+"/debug/flightrecorder/"+id, &rec); code != http.StatusOK {
		t.Fatalf("flight record of the panicking request: status %d", code)
	}
	if rec.Status != http.StatusInternalServerError ||
		!strings.Contains(rec.Error, "dist: block size") || !strings.Contains(rec.Error, "TestPanicOnWorkerIs500") {
		t.Errorf("flight record = status %d, error %q, want the panic text and its stack", rec.Status, rec.Error)
	}

	s.testHook = nil
	if resp, _ := post(); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panic: status %d, want 200", resp.StatusCode)
	}
	if st := s.pool.Stats(); st.Failed != 1 || st.Completed != 1 || st.Active != 0 {
		t.Errorf("pool stats = %+v", st)
	}
}

// poisonLog is a log sink that panics on a line naming the armed event,
// which raises the panic where the pipeline logs that event: inside the
// cached computation ("analysis.done" in the compile and skeleton tiers',
// "place.done" in the placement tier's), not in front of the cache as
// testHook does.
type poisonLog struct{ event atomic.Pointer[string] }

func (w *poisonLog) Write(p []byte) (int, error) {
	if ev := w.event.Load(); ev != nil && bytes.Contains(p, []byte(*ev)) {
		panic("obs: poisoned " + *ev)
	}
	return len(p), nil
}

// TestPanicInsideCacheDoesNotWedge: a panic inside a cached computation
// must not leave its in-flight entry behind. The poisoned request is a
// 500 with the stack in its flight record, and the identical request
// after it — the input no longer panicking — compiles, instead of
// parking the (single) worker on the dead flight until its deadline.
// With strategy "all" the panic is in the first of the three placements.
func TestPanicInsideCacheDoesNotWedge(t *testing.T) {
	for _, tc := range []struct{ strategy, event string }{
		{"comb", "analysis.done"},
		{"comb", "place.done"},
		{"all", "place.done"},
	} {
		t.Run(tc.strategy+"/"+tc.event, func(t *testing.T) {
			log := &poisonLog{}
			s := newServer(serverConfig{workers: 1, reqTimeout: 30 * time.Second, logW: log})
			ts := httptest.NewServer(s.handler())
			t.Cleanup(ts.Close)
			t.Cleanup(s.close)
			body, _ := json.Marshal(map[string]any{
				"source": stencilSrc, "params": map[string]int{"n": 12, "steps": 2}, "procs": 4,
				"strategy": tc.strategy,
			})
			log.event.Store(&tc.event)
			resp, doc := postForError(t, ts, body)
			id := resp.Header.Get("X-Request-Id")
			if resp.StatusCode != http.StatusInternalServerError || doc["req_id"] != id ||
				!strings.Contains(doc["error"], "obs: poisoned") || strings.Contains(doc["error"], "goroutine") {
				t.Fatalf("poisoned request: status %d, body %v", resp.StatusCode, doc)
			}
			var rec reqtrace.Record
			if code := getJSON(t, ts.URL+"/debug/flightrecorder/"+id, &rec); code != http.StatusOK {
				t.Fatalf("flight record of the poisoned request: status %d", code)
			}
			if !strings.Contains(rec.Error, "(*poisonLog).Write") {
				t.Errorf("flight record error %q, want the stack down to the panic site", rec.Error)
			}
			// "analysis.done" is logged inside the skeleton tier's build too:
			// that flight is settled and nothing of it is cached.
			if st := s.cache.Stats().Skeleton; tc.event == "analysis.done" && (st.Entries != 0 || st.Misses != 1) {
				t.Errorf("skeleton tier after a panic inside its build: %+v", st)
			}
			log.event.Store(nil)
			if resp, _ := postForError(t, ts, body); resp.StatusCode != http.StatusOK {
				t.Fatalf("the same request after the panic: status %d, want 200", resp.StatusCode)
			}
			if st := s.cache.Stats().Skeleton; st.Entries != 1 {
				t.Errorf("skeleton tier after the request that compiled: %+v", st)
			}
			if st := s.pool.Stats(); st.Failed != 1 || st.Completed != 1 || st.Active != 0 {
				t.Errorf("pool stats = %+v", st)
			}
		})
	}
}

// TestQueueWaitHistogram saturates a one-worker pool and checks the
// queue-wait family renders with monotone cumulative buckets and a
// nonzero count once jobs have drained.
func TestQueueWaitHistogram(t *testing.T) {
	s, ts, release := blockingServer(t)
	done := make(chan int, 2)
	saturate(t, s, ts, done)
	time.Sleep(30 * time.Millisecond) // let the queued job accrue wait
	release()
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("blocked request finished with %d", code)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckPromText(text); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	var bucketVals []float64
	var count float64
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, `gcao_queue_wait_seconds_bucket{pool="compile"`) {
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("bad bucket line %q", line)
			}
			bucketVals = append(bucketVals, v)
		}
		if strings.HasPrefix(line, `gcao_queue_wait_seconds_count{pool="compile"`) {
			fields := strings.Fields(line)
			count, _ = strconv.ParseFloat(fields[len(fields)-1], 64)
		}
	}
	if len(bucketVals) == 0 || count < 2 {
		t.Fatalf("queue wait family missing: %d buckets, count %v", len(bucketVals), count)
	}
	for i := 1; i < len(bucketVals); i++ {
		if bucketVals[i] < bucketVals[i-1] {
			t.Fatalf("cumulative buckets not monotone: %v", bucketVals)
		}
	}
	if bucketVals[len(bucketVals)-1] != count {
		t.Fatalf("+Inf bucket %v != count %v", bucketVals[len(bucketVals)-1], count)
	}
}

// TestBuildInfoAndHTTPMetrics checks gcao_build_info and the RED
// families appear in a valid exposition after traffic.
func TestBuildInfoAndHTTPMetrics(t *testing.T) {
	_, ts := testServer(t)
	resp, _ := postCompile(t, ts, map[string]any{
		"source": stencilSrc, "params": map[string]int{"n": 8, "steps": 1}, "procs": 4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status = %d", resp.StatusCode)
	}
	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckPromText(text); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for _, want := range []string{
		"gcao_build_info{version=\"dev\"} 1",
		"gcao_http_requests_total{code=\"200\",route=\"/compile\"} 1",
		"gcao_http_request_seconds_bucket{route=\"/compile\",le=\"+Inf\"} 1",
		"gcao_http_inflight 1", // the /metrics request itself
		"gcao_pool_workers",
		"gcao_sched_jobs_total{outcome=\"completed\"} 1",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestRouteLabelBounded pins the label normalizer so client-controlled
// paths cannot mint unbounded label values.
func TestRouteLabelBounded(t *testing.T) {
	cases := map[string]string{
		"/compile":                     "/compile",
		"/compile/batch":               "other",
		"/debug/flightrecorder":        "/debug/flightrecorder",
		"/debug/decisions/r000001":     "other",
		"/debug/critpath":              "other",
		"/debug/flightrecorder/r00003": "/debug/flightrecorder/{id}",
		"/debug/pprof/heap":            "/debug/pprof",
		"/debug/live":                  "other",
		"/nonsense/../path":            "other",
		"/":                            "other",
	}
	for path, want := range cases {
		if got := routeLabel(path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestMetricsSeriesBounded: /metrics is an aggregate with a fixed schema.
// Forty compiles, each of a new routine one sweep longer than the last,
// every one placing all three versions, estimating and simulating, every
// other one natively too, leave exactly the series the first request of
// each kind left: no label value comes from the routine's name, its
// placement sites or the last run.
func TestMetricsSeriesBounded(t *testing.T) {
	_, ts := testServer(t)
	// A scrape before the traffic, so every later one already counts the
	// /metrics route.
	scrape(t, ts)
	var first map[string]bool
	for i := range 40 {
		req := map[string]any{
			"source":   sweepSource(fmt.Sprintf("smooth%d", i), i+1),
			"params":   map[string]int{"n": 8, "steps": 1},
			"procs":    4,
			"strategy": "all",
			"estimate": true,
			"simulate": true,
		}
		if i%2 == 1 {
			req["backend"] = "native"
		}
		if resp, _ := postCompile(t, ts, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if i == 1 {
			first = seriesOf(t, scrape(t, ts))
		}
	}
	last := seriesOf(t, scrape(t, ts))
	for k := range last {
		if !first[k] {
			t.Errorf("series %s appeared after the first request of its kind", k)
		}
	}
	for k := range first {
		if !last[k] {
			t.Errorf("series %s disappeared", k)
		}
	}
}

// sweepSource is a Jacobi smoother named name whose time loop holds
// sweeps stencil-and-copy pairs.
func sweepSource(name string, sweeps int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "routine %s(n, steps)\nreal a(0:n+1, 0:n+1), b(0:n+1, 0:n+1)\n!hpf$ distribute (block, block) :: a, b\n", name)
	b.WriteString("do i = 0, n + 1\ndo j = 0, n + 1\na(i, j) = 1.0 + i * 0.1 + j * 0.01\nb(i, j) = 0.0\nenddo\nenddo\ndo it = 1, steps\n")
	for range sweeps {
		b.WriteString("do i = 1, n\ndo j = 1, n\nb(i, j) = 0.25 * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))\nenddo\nenddo\n")
		b.WriteString("do i = 1, n\ndo j = 1, n\na(i, j) = b(i, j)\nenddo\nenddo\n")
	}
	b.WriteString("enddo\nend\n")
	return b.String()
}

// seriesOf is the set of (family, label set) pairs of a valid exposition:
// each sample line without its value.
func seriesOf(t *testing.T, text string) map[string]bool {
	t.Helper()
	if err := obs.CheckPromText([]byte(text)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	set := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			set[line[:strings.LastIndexByte(line, ' ')]] = true
		}
	}
	return set
}
