package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gcao"
	"gcao/internal/obs"
	"gcao/internal/obs/reqtrace"
	"gcao/internal/sched"
)

// routeLabel maps a request path onto the daemon's bounded route
// vocabulary, so per-route metric labels cannot explode with client
// garbage: known routes map to themselves, parameterized routes
// collapse their id segment, everything else is "other".
func routeLabel(path string) string {
	switch path {
	case "/compile", "/metrics", "/healthz",
		"/debug/cache", "/debug/flightrecorder":
		return path
	}
	switch {
	case strings.HasPrefix(path, "/debug/flightrecorder/"):
		return "/debug/flightrecorder/{id}"
	case strings.HasPrefix(path, "/debug/pprof"):
		return "/debug/pprof"
	}
	return "other"
}

// statusWriter captures the response status for the RED ledger.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// withObs is the ingress middleware every route runs under: it mints
// the request id, ingests (or mints) the W3C trace context, makes the
// request's recorder — logging through the daemon's logger under the
// request id, so every event of the request from ingress on is
// request-scoped — and binds both to the request's context, answers
// with X-Request-Id and traceparent headers before the handler runs — so
// even sheds and timeouts carry them — and feeds the RED families and
// the in-flight gauge.
func (s *server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		route := routeLabel(r.URL.Path)
		id := fmt.Sprintf("r%06d", s.seq.Add(1))
		tr, _ := reqtrace.FromTraceparent(r.Header.Get("traceparent"), id)
		// The first phase opens with the recorder so the tiling covers
		// the whole request: middleware and handler overhead land in
		// "ingress", not in an unaccounted gap.
		rec := obs.NewRequest("ingress")
		rec.SetLog(s.log, id)
		w.Header().Set("X-Request-Id", id)
		w.Header().Set("Traceparent", tr.Traceparent())
		sw := &statusWriter{ResponseWriter: w}
		s.inflight.Add(1)
		next.ServeHTTP(sw, r.WithContext(reqtrace.NewContext(r.Context(), tr, rec)))
		s.inflight.Add(-1)
		s.reg.ObserveHTTP(route, sw.status(), time.Since(t0).Seconds())
	})
}

// reqID returns the middleware-minted id of the request being served.
func reqID(r *http.Request) string {
	tr, _ := reqtrace.FromContext(r.Context())
	return tr.ReqID()
}

// retain is where a finished /compile request goes: its recorder is
// absorbed into the registry, its last phase is ended, and one record —
// its start time t0, the trace's identity, the outcome and one snapshot
// of the recorder, spans and facets — is added to the flight recorder
// under the id the response's X-Request-Id header carried. It returns
// the status label the registry counted the request under.
func (s *server) retain(tr *reqtrace.Trace, t0 time.Time, err error, resp *compileResponse, reqRec *obs.Recorder) string {
	status, code := "ok", http.StatusOK
	if err != nil {
		status, code = "error", httpStatus(err)
	}
	s.reg.Absorb(reqRec, status)
	reqRec.EndPhase()
	doc := reqRec.Doc()
	rec := reqtrace.Record{
		ID: tr.ReqID(), TraceID: tr.TraceID(), RemoteParent: tr.RemoteParent(),
		Route: "/compile", Status: code, UnixNS: t0.UnixNano(),
		Spans: doc.Spans, Data: &doc,
	}
	if err != nil {
		rec.Error = err.Error()
		// A contained panic answers the client with its text only; the
		// stack is for whoever follows the request id here.
		var pe *sched.PanicError
		if errors.As(err, &pe) {
			rec.Error += "\n" + string(pe.Stack)
		}
	}
	if resp != nil {
		rec.Strategy = resp.Strategy
		if resp.Cache != nil {
			rec.Cache = resp.Cache.Compile
		}
	}
	s.flight.Add(rec)
	return status
}

// retryAfter derives the 429 backoff hint from the scheduler's own
// drain estimate (backlog × observed service time over the workers)
// instead of a constant, clamped to [1,30] seconds: an idle or barely
// loaded daemon invites an immediate retry, a deeply backed-up one
// pushes clients out to its real recovery horizon.
func (s *server) retryAfter() int {
	secs := int(math.Ceil(s.pool.EstimateDrain().Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// handleFlightList serves the flight recorder's ring and slow-store
// summaries (no spans; fetch /debug/flightrecorder/{id} for one).
// ?has=<facet> keeps the requests that carry that facet, and the stats
// then count those.
func (s *server) handleFlightList(w http.ResponseWriter, r *http.Request) {
	limit, err := listLimit(r)
	if err != nil {
		s.writeErrMsg(w, r, http.StatusBadRequest, err.Error())
		return
	}
	has := r.URL.Query().Get("has")
	if has != "" && !reqtrace.KnownFacet(has) {
		s.writeErrMsg(w, r, http.StatusBadRequest, "unknown facet "+has)
		return
	}
	recent, slow, stats := s.flight.List(limit, has)
	writeJSON(w, http.StatusOK, map[string]any{"recent": recent, "slow": slow, "stats": stats})
}

// facetAbsent says, per facet, what a record that does not carry it lacks
// and why.
var facetAbsent = map[string]string{
	reqtrace.FacetDecisions:  "decision log (no placement ran: it was cached, or the request failed first)",
	reqtrace.FacetCritPath:   "attribution record (simulate was not requested)",
	reqtrace.FacetNativeProf: "native profile (backend native was not requested)",
}

// handleFlight serves one retained request, looked up by the
// X-Request-Id the original response carried: its summary and spans, or
// with ?facet= one of the facets its summary names —
//
//	decisions   the placement decision log and the final counters
//	critpath    the blame ranking and communication critical path analyzed
//	            from the simulator's attribution record; ?g= and ?L=
//	            override the BSP cost model (seconds per byte, per superstep);
//	            beside it the simulator's profile: pair matrices, time split
//	nativeprof  the native backend's runtime profile: per-superstep
//	            per-processor timelines, wait accounting, skew, stragglers
func (s *server) handleFlight(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	facet := r.URL.Query().Get("facet")
	if facet != "" && !reqtrace.KnownFacet(facet) {
		s.writeErrMsg(w, r, http.StatusBadRequest, "unknown facet "+facet)
		return
	}
	rec, ok := s.flight.Get(id)
	if !ok {
		s.writeErrMsg(w, r, http.StatusNotFound, "no retained flight record "+id)
		return
	}
	if facet != "" && !rec.Has(facet) {
		s.writeErrMsg(w, r, http.StatusNotFound, "request "+id+" has no "+facetAbsent[facet])
		return
	}
	switch facet {
	case "":
		writeJSON(w, http.StatusOK, rec)
	case reqtrace.FacetDecisions:
		writeJSON(w, http.StatusOK, map[string]any{
			"req_id": id, "decisions": rec.Data.Decisions, "counters": rec.Data.Counters,
		})
	case reqtrace.FacetCritPath:
		model := gcao.AttrCostModelFor(gcao.SP2())
		for _, knob := range []struct {
			name string
			v    *float64
		}{{"g", &model.GSecPerByte}, {"L", &model.LSec}} {
			q := r.URL.Query().Get(knob.name)
			if q == "" {
				continue
			}
			// ParseFloat takes NaN and Inf; JSON cannot carry them.
			v, err := strconv.ParseFloat(q, 64)
			if err != nil || !(v >= 0 && v <= math.MaxFloat64) {
				s.writeErrMsg(w, r, http.StatusBadRequest, "bad "+knob.name+" "+q)
				return
			}
			*knob.v = v
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"req_id": id, "report": gcao.AnalyzeAttribution(rec.Data.Attr, model), "profile": rec.Data.Profile,
		})
	case reqtrace.FacetNativeProf:
		writeJSON(w, http.StatusOK, map[string]any{"req_id": id, "profile": rec.Data.NativeProf})
	}
}

// serverStats adapts the live serving-layer occupancy for the
// registry's scrape-time gauges.
func (s *server) serverStats() obs.ServerStats {
	st := s.pool.Stats()
	return obs.ServerStats{
		HTTPInflight:      s.inflight.Load(),
		QueueDepth:        st.Queued,
		QueueCapacity:     int64(st.QueueDepth),
		ActiveJobs:        st.Active,
		Workers:           int64(st.Workers),
		AvgServiceSeconds: float64(st.AvgServiceUS) / 1e6,
		JobOutcomes: map[string]int64{
			"completed": st.Completed,
			"failed":    st.Failed,
			"expired":   st.Expired,
			"rejected":  st.Rejected,
		},
	}
}
