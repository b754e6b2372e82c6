package main

import (
	"net/http"
	"strings"
	"testing"

	"gcao/internal/native/prof"
)

// TestNativeProfEndpoint: a backend:"native" compile is profiled end
// to end — the response carries the skew/blocked headline,
// /debug/flightrecorder?has=nativeprof lists the request,
// /debug/flightrecorder/{id}?facet=nativeprof serves the retained
// profile, and its blocked time reaches /metrics. A plain request has no
// profile and 404s.
func TestNativeProfEndpoint(t *testing.T) {
	_, ts := testServer(t)
	respPlain, outPlain := postCompile(t, ts, map[string]any{
		"source": stencilSrc,
		"params": map[string]int{"n": 12, "steps": 2},
		"procs":  4,
	})
	if respPlain.StatusCode != http.StatusOK {
		t.Fatalf("plain compile status = %d", respPlain.StatusCode)
	}
	respNat, outNat := postCompile(t, ts, map[string]any{
		"source":   stencilSrc,
		"params":   map[string]int{"n": 12, "steps": 3},
		"procs":    4,
		"strategy": "comb",
		"simulate": true,
		"backend":  "native",
	})
	if respNat.StatusCode != http.StatusOK {
		t.Fatalf("native compile status = %d", respNat.StatusCode)
	}
	if outNat.Native == nil {
		t.Fatal("native doc missing")
	}
	if outNat.Native.SkewRatio < 1 {
		t.Fatalf("skew ratio = %g, want >= 1 on a profiled run", outNat.Native.SkewRatio)
	}
	if outNat.Native.BlockedSeconds <= 0 {
		t.Fatalf("blocked seconds = %g, want > 0 on a communicating run", outNat.Native.BlockedSeconds)
	}

	// The list endpoint names only the profiled request, and counts it
	// alone.
	var list flightList
	if code := getJSON(t, ts.URL+"/debug/flightrecorder?has=nativeprof", &list); code != http.StatusOK {
		t.Fatalf("nativeprof list status = %d", code)
	}
	if ids := list.ids(); len(ids) != 1 || ids[0] != outNat.ReqID || list.Stats.Recent != 1 || list.Stats.Added != 2 {
		t.Fatalf("nativeprof list = %+v (native req %s)", list, outNat.ReqID)
	}

	var detail struct {
		ReqID   string              `json:"req_id"`
		Profile *prof.NativeProfile `json:"profile"`
	}
	if code := getJSON(t, ts.URL+"/debug/flightrecorder/"+outNat.ReqID+"?facet=nativeprof", &detail); code != http.StatusOK {
		t.Fatalf("nativeprof detail status = %d", code)
	}
	np := detail.Profile
	if detail.ReqID != outNat.ReqID || np == nil {
		t.Fatalf("nativeprof detail = %+v", detail)
	}
	if np.Procs != 4 || len(np.Steps) == 0 || len(np.ProcTotals) != 4 {
		t.Fatalf("profile shape: procs %d, %d steps, %d proc totals",
			np.Procs, len(np.Steps), len(np.ProcTotals))
	}
	if np.SkewRatio != outNat.Native.SkewRatio {
		t.Fatalf("retained skew %g != response skew %g", np.SkewRatio, outNat.Native.SkewRatio)
	}

	// The blocked-time counter reaches the scrape; skew is the run's own
	// answer (response and facet above), never a gauge.
	text := scrape(t, ts)
	if !strings.Contains(text, `gcao_native_blocked_seconds_total{version="comb"}`) {
		t.Fatal("gcao_native_blocked_seconds_total missing from /metrics")
	}
	if strings.Contains(text, "skew") {
		t.Fatal("/metrics exports a run's skew")
	}

	// Error paths: unprofiled request, unknown id, bad limit.
	if code := getJSON(t, ts.URL+"/debug/flightrecorder/"+outPlain.ReqID+"?facet=nativeprof", nil); code != http.StatusNotFound {
		t.Fatalf("unprofiled request status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/debug/flightrecorder/nope?facet=nativeprof", nil); code != http.StatusNotFound {
		t.Fatalf("unknown id status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/debug/flightrecorder?has=nativeprof&limit=frog", nil); code != http.StatusBadRequest {
		t.Fatalf("bad limit status = %d", code)
	}
}
