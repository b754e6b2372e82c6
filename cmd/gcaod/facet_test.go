package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"gcao/internal/obs/reqtrace"
)

// nativeBody is a request that is born with every facet: it places
// (decisions), simulates (critpath) and runs natively (nativeprof).
func nativeBody(n int) map[string]any {
	return map[string]any{
		"source": stencilSrc, "params": map[string]int{"n": n, "steps": 2}, "procs": 4,
		"strategy": "comb", "simulate": true, "backend": "native",
	}
}

// topKeys fetches a URL and returns its status and, of a 200, the sorted
// top-level keys of the JSON object it served.
func topKeys(t *testing.T, url string) (int, string) {
	t.Helper()
	var doc map[string]json.RawMessage
	code := getJSON(t, url, &doc)
	return code, sortedKeys(doc)
}

// sortedKeys lists a JSON object's top-level keys, sorted and space
// separated.
func sortedKeys(doc map[string]json.RawMessage) string {
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// scrape returns the daemon's /metrics text.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

// TestDebugRouteTable maps every removed debug route onto the query that
// replaced it: the query serves the document the route served (the
// payloads themselves are asserted by TestDecisionDebugEndpoint,
// TestCritPathEndpoint and TestNativeProfEndpoint), the route is gone,
// and what it is counted under is the bounded label "other".
func TestDebugRouteTable(t *testing.T) {
	_, ts := testServer(t)
	resp, out := postCompile(t, ts, nativeBody(12))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status = %d", resp.StatusCode)
	}
	byID := "/debug/flightrecorder/" + out.ReqID
	for _, tc := range []struct{ old, query, keys string }{
		{"/debug/decisions/" + out.ReqID, byID + "?facet=decisions", "counters decisions req_id"},
		{"/debug/critpath/" + out.ReqID + "?g=0&L=1", byID + "?facet=critpath&g=0&L=1", "profile report req_id"},
		{"/debug/nativeprof/" + out.ReqID, byID + "?facet=nativeprof", "profile req_id"},
		{"/debug/decisions", "/debug/flightrecorder?has=decisions", "recent slow stats"},
		{"/debug/critpath", "/debug/flightrecorder?has=critpath", "recent slow stats"},
		{"/debug/nativeprof?limit=1", "/debug/flightrecorder?has=nativeprof&limit=1", "recent slow stats"},
	} {
		if code, keys := topKeys(t, ts.URL+tc.query); code != http.StatusOK || keys != tc.keys {
			t.Errorf("%s: status %d, keys %q, want 200 and %q", tc.query, code, keys, tc.keys)
		}
		if code, _ := topKeys(t, ts.URL+tc.old); code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404 (the route is removed)", tc.old, code)
		}
		if got := routeLabel(strings.SplitN(tc.old, "?", 2)[0]); got != "other" {
			t.Errorf("routeLabel(%s) = %q", tc.old, got)
		}
	}
	// /debug/live restated /metrics: a request rate is the difference of
	// gcao_http_requests_total between two scrapes. Its route is gone too,
	// answers with the request id, and is counted with the six above.
	live, err := http.Get(ts.URL + "/debug/live")
	if err != nil {
		t.Fatal(err)
	}
	live.Body.Close()
	if live.StatusCode != http.StatusNotFound || live.Header.Get("X-Request-Id") == "" {
		t.Errorf("/debug/live: status %d, X-Request-Id %q, want 404 with an id", live.StatusCode, live.Header.Get("X-Request-Id"))
	}
	if text := scrape(t, ts); !strings.Contains(text, `gcao_http_requests_total{code="404",route="other"} 7`+"\n") {
		t.Errorf("removed routes not counted as 7 404s under other:\n%s", text)
	}
	// No facet: the summary, naming the facets, and the spans.
	if rec := fetchRecord(t, ts, out.ReqID); strings.Join(rec.Facets, " ") != "decisions critpath nativeprof" {
		t.Errorf("record names facets %v", rec.Facets)
	}
	if _, keys := topKeys(t, ts.URL+byID); strings.Contains(keys, "native_") || strings.Contains(keys, "data") {
		t.Errorf("record keys %q restate a facet", keys)
	}
}

// TestSlowRecordKeepsFacets: a request the slow store holds serves every
// facet it was born with, however many newer requests have gone through
// the ring since. Before the flight record carried the facets the
// decision log, attribution record and profile lived in a second ring
// with its own eviction, and a slow request's id resolved to a span tree
// and three 404s.
func TestSlowRecordKeepsFacets(t *testing.T) {
	s := newServer(serverConfig{slowThreshold: time.Nanosecond, logW: io.Discard})
	// Every request is slow; the ring holds two, the slow store the lot.
	s.flight = reqtrace.NewFlightRecorder(2, 64, s.cfg.slowThreshold)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.close)
	_, out := postCompile(t, ts, nativeBody(12))
	for n := 8; n < 12; n++ {
		if resp, _ := postCompile(t, ts, map[string]any{
			"source": stencilSrc, "params": map[string]int{"n": n, "steps": 1}, "procs": 4,
		}); resp.StatusCode != http.StatusOK {
			t.Fatalf("compile status = %d", resp.StatusCode)
		}
	}
	var list flightList
	getJSON(t, ts.URL+"/debug/flightrecorder", &list)
	if ids := strings.Join(list.ids(), " "); strings.Contains(ids, out.ReqID) || len(list.Recent) != 2 {
		t.Fatalf("the ring still lists %s among %s", out.ReqID, ids)
	}
	byID := ts.URL + "/debug/flightrecorder/" + out.ReqID
	for _, q := range []string{"", "?facet=decisions", "?facet=critpath", "?facet=nativeprof"} {
		if code := getJSON(t, byID+q, nil); code != http.StatusOK {
			t.Errorf("%s%s: status %d, want 200 from the slow store", out.ReqID, q, code)
		}
	}
	getJSON(t, ts.URL+"/debug/flightrecorder?has=nativeprof", &list)
	if len(list.Recent) != 0 || len(list.Slow) != 1 || list.Slow[0].ID != out.ReqID ||
		list.Stats.Recent != 0 || list.Stats.SlowRetained != 1 {
		t.Errorf("?has=nativeprof = %+v", list)
	}
}
