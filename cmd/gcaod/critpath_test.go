package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"gcao"
	"gcao/internal/obs"
	"gcao/internal/obs/reqtrace"
)

// getJSON fetches a URL and decodes its body into out, returning the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// flightList is the GET /debug/flightrecorder document.
type flightList struct {
	Recent []reqtrace.Record    `json:"recent"`
	Slow   []reqtrace.Record    `json:"slow"`
	Stats  reqtrace.FlightStats `json:"stats"`
}

// ids returns the listed recent request ids, newest first.
func (l flightList) ids() []string {
	out := make([]string, len(l.Recent))
	for i, r := range l.Recent {
		out[i] = r.ID
	}
	return out
}

// TestCritPathEndpoint: a simulated compile leaves an attribution
// record behind; /debug/flightrecorder?has=critpath lists it and
// /debug/flightrecorder/{id}?facet=critpath serves the analyzed blame
// report, with ?g/?L overriding the BSP cost model, beside the
// simulator's profile.
func TestCritPathEndpoint(t *testing.T) {
	_, ts := testServer(t)
	// One plain compile (no attribution) and one simulated compile.
	respPlain, outPlain := postCompile(t, ts, map[string]any{
		"source": stencilSrc,
		"params": map[string]int{"n": 8, "steps": 1},
		"procs":  4,
	})
	if respPlain.StatusCode != http.StatusOK {
		t.Fatalf("plain compile status = %d", respPlain.StatusCode)
	}
	respSim, outSim := postCompile(t, ts, map[string]any{
		"source":   stencilSrc,
		"params":   map[string]int{"n": 8, "steps": 2},
		"procs":    4,
		"simulate": true,
	})
	if respSim.StatusCode != http.StatusOK {
		t.Fatalf("simulated compile status = %d", respSim.StatusCode)
	}

	// The critpath list contains only the simulated request, and counts
	// one record — the ring holds both.
	var list flightList
	if code := getJSON(t, ts.URL+"/debug/flightrecorder?has=critpath", &list); code != http.StatusOK {
		t.Fatalf("critpath list status = %d", code)
	}
	if ids := list.ids(); len(ids) != 1 || ids[0] != outSim.ReqID || list.Stats.Recent != 1 || list.Stats.Added != 2 {
		t.Fatalf("critpath list = %+v (sim req %s)", list, outSim.ReqID)
	}
	if got := strings.Join(list.Recent[0].Facets, " "); got != "decisions critpath" {
		t.Fatalf("simulated request's summary names facets %q", got)
	}

	simURL := ts.URL + "/debug/flightrecorder/" + outSim.ReqID + "?facet=critpath"
	var detail struct {
		ReqID   string           `json:"req_id"`
		Report  *gcao.AttrReport `json:"report"`
		Profile *obs.CommProfile `json:"profile"`
	}
	if code := getJSON(t, simURL, &detail); code != http.StatusOK {
		t.Fatalf("critpath detail status = %d", code)
	}
	rep := detail.Report
	if detail.ReqID != outSim.ReqID || rep == nil {
		t.Fatalf("critpath detail = %+v", detail)
	}
	if pr := detail.Profile; pr == nil || pr.Procs != 4 || len(pr.PairBytes) != 4 || len(pr.PairBytes[0]) != 4 ||
		pr.MaxPairBytes() <= 0 || len(pr.ComputeSec) != 4 {
		t.Fatalf("critpath profile = %+v, want a 4×4 pair matrix with traffic and a time split", detail.Profile)
	}
	if rep.TotalSteps == 0 || rep.TotalBytes == 0 || len(rep.Sites) == 0 || len(rep.CriticalPath) == 0 {
		t.Fatalf("report empty: %+v", rep)
	}
	if rep.CriticalSec <= 0 || rep.CriticalSec > rep.SerialSec {
		t.Fatalf("critical %g vs serial %g", rep.CriticalSec, rep.SerialSec)
	}
	if !strings.Contains(rep.Sites[0].Site, "/g") {
		t.Fatalf("top site %q is not a placement site id", rep.Sites[0].Site)
	}

	// Cost-model overrides flow into the report: with g=0 and a huge L
	// every superstep costs L, so the critical path cost is steps*L.
	var cheap struct {
		Report *gcao.AttrReport `json:"report"`
	}
	if code := getJSON(t, simURL+"&g=0&L=1", &cheap); code != http.StatusOK {
		t.Fatalf("override status = %d", code)
	}
	if cheap.Report.Model.GSecPerByte != 0 || cheap.Report.Model.LSec != 1 {
		t.Fatalf("override model = %+v", cheap.Report.Model)
	}
	if got := cheap.Report.CriticalSec; got != float64(len(cheap.Report.CriticalPath)) {
		t.Fatalf("with g=0, L=1: critical = %g, path length %d", got, len(cheap.Report.CriticalPath))
	}

	// Error paths: bad model knob, non-simulated request, unknown id,
	// unknown facet (on the record and on the listing).
	if code := getJSON(t, simURL+"&g=banana", nil); code != http.StatusBadRequest {
		t.Fatalf("bad g status = %d", code)
	}
	if code := getJSON(t, simURL+"&L=-1", nil); code != http.StatusBadRequest {
		t.Fatalf("negative L status = %d", code)
	}
	for _, knob := range []string{"&g=NaN", "&L=Inf"} {
		if code := getJSON(t, simURL+knob, nil); code != http.StatusBadRequest {
			t.Fatalf("non-finite knob %s status = %d", knob, code)
		}
	}
	if code := getJSON(t, ts.URL+"/debug/flightrecorder/"+outPlain.ReqID+"?facet=critpath", nil); code != http.StatusNotFound {
		t.Fatalf("non-simulated request status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/debug/flightrecorder/nope?facet=critpath", nil); code != http.StatusNotFound {
		t.Fatalf("unknown id status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/debug/flightrecorder/"+outSim.ReqID+"?facet=spans", nil); code != http.StatusBadRequest {
		t.Fatalf("unknown facet status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/debug/flightrecorder?has=spans", nil); code != http.StatusBadRequest {
		t.Fatalf("unknown has status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/debug/flightrecorder?has=critpath&limit=frog", nil); code != http.StatusBadRequest {
		t.Fatalf("bad limit status = %d", code)
	}
}

// TestCritPathPricesWithSP2: the critpath facet of an SP2 request is
// the retained attribution record analyzed under the SP2 machine's own
// cost model, the one hpfc profile -blame prices with.
func TestCritPathPricesWithSP2(t *testing.T) {
	s, ts := testServer(t)
	resp, out := postCompile(t, ts, map[string]any{
		"source":   stencilSrc,
		"params":   map[string]int{"n": 8, "steps": 2},
		"procs":    4,
		"machine":  "SP2",
		"simulate": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulated compile status = %d", resp.StatusCode)
	}
	rec, ok := s.flight.Get(out.ReqID)
	if !ok || rec.Data.Attr == nil {
		t.Fatalf("request %s retained no attribution record", out.ReqID)
	}
	want, err := json.Marshal(gcao.AnalyzeAttribution(rec.Data.Attr, gcao.AttrCostModelFor(gcao.SP2())))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Report json.RawMessage `json:"report"`
	}
	if code := getJSON(t, ts.URL+"/debug/flightrecorder/"+out.ReqID+"?facet=critpath", &got); code != http.StatusOK {
		t.Fatalf("critpath status = %d", code)
	}
	if string(got.Report) != string(want) {
		t.Errorf("critpath report\n%s\nwant\n%s", got.Report, want)
	}
}

// TestDecisionListLimit pins the ?limit=N paging of the
// /debug/flightrecorder?has=decisions listing: default bounded, explicit
// limit honored, limit=0 returns everything retained, the stats count
// every record carrying the facet whatever the limit, garbage is a 400.
func TestDecisionListLimit(t *testing.T) {
	s, ts := testServer(t)
	// Seed the store directly; three records suffice to see paging, and
	// one without a decision log to see the filter.
	for _, id := range []string{"r1", "r2", "plain", "r3"} {
		rec := reqtrace.Record{ID: id, Status: http.StatusOK}
		if id != "plain" {
			rec.Data = &obs.MetricsDoc{Decisions: []obs.Decision{{Entry: 1}}}
		}
		s.flight.Add(rec)
	}
	for _, tc := range []struct {
		query, want string
	}{
		{"", "r3 r2 r1"},
		{"&limit=2", "r3 r2"},
		{"&limit=0", "r3 r2 r1"},
	} {
		var list flightList
		if code := getJSON(t, ts.URL+"/debug/flightrecorder?has=decisions"+tc.query, &list); code != http.StatusOK {
			t.Fatalf("list %q status = %d", tc.query, code)
		}
		if got := strings.Join(list.ids(), " "); got != tc.want || list.Stats.Recent != 3 || list.Stats.Added != 4 {
			t.Fatalf("list %q = %s, stats %+v; want %s of 3", tc.query, got, list.Stats, tc.want)
		}
	}
	if code := getJSON(t, ts.URL+"/debug/flightrecorder?has=decisions&limit=two", nil); code != http.StatusBadRequest {
		t.Fatalf("bad limit status = %d", code)
	}
}
