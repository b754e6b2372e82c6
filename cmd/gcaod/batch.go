package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"gcao/internal/obs"
	"gcao/internal/obs/reqtrace"
	"gcao/internal/sched"
)

// maxBatchItems bounds one /compile/batch request; a larger batch is
// rejected outright rather than partially admitted.
const maxBatchItems = 64

// batchRequest is the POST /compile/batch body: a list of independent
// compile requests scheduled together through the bounded worker pool.
type batchRequest struct {
	Items []compileRequest `json:"items"`
}

// batchItemResult is one item's outcome. Exactly one of Response and
// Error is set; Status is the item's HTTP-equivalent status code.
type batchItemResult struct {
	Index    int              `json:"index"`
	ReqID    string           `json:"req_id"`
	Status   int              `json:"status"`
	Response *compileResponse `json:"response,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// batchResponse is the POST /compile/batch result.
type batchResponse struct {
	Items     []batchItemResult `json:"items"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
}

// handleCompileBatch schedules every item of the batch onto the worker
// pool and reports per-item status. Items run with at most -workers
// concurrency; items that do not fit in the admission queue fail with
// 429 individually. If every item was rejected for queue overflow the
// whole batch is a 429 (with Retry-After), so a saturated daemon looks
// the same to batch and single-shot clients.
func (s *server) handleCompileBatch(w http.ResponseWriter, r *http.Request) {
	// The middleware's request id doubles as the batch id; items mint
	// their own ids below so every compilation remains individually
	// addressable in the flight recorder.
	batchTr, _ := reqtrace.FromContext(r.Context())
	batchID := batchTr.ReqID()
	t0 := time.Now()
	body, err := readBody(r, s.cfg.maxBody)
	var req batchRequest
	if err == nil {
		req, err = decodeJSON[batchRequest](body)
	}
	if err != nil {
		s.reg.Absorb(nil, "error")
		s.writeError(w, batchID, err)
		return
	}
	if len(req.Items) == 0 {
		s.reg.Absorb(nil, "error")
		s.writeError(w, batchID, badRequestError{errors.New("batch has no items")})
		return
	}
	if len(req.Items) > maxBatchItems {
		s.reg.Absorb(nil, "error")
		s.writeError(w, batchID, badRequestError{
			fmt.Errorf("batch has %d items, limit is %d", len(req.Items), maxBatchItems)})
		return
	}

	type itemState struct {
		id     string
		rec    *obs.Recorder
		tr     *reqtrace.Trace
		cancel context.CancelFunc
	}
	states := make([]itemState, len(req.Items))
	tasks := make([]sched.BatchTask, len(req.Items))
	for i, item := range req.Items {
		id := fmt.Sprintf("r%06d", s.seq.Add(1))
		// Each item is a request of its own under the batch's trace id,
		// with its own recorder, so a slow item resolves at
		// /debug/flightrecorder/{id} like a single-shot request would.
		tr, _ := reqtrace.FromTraceparent(batchTr.Traceparent(), id)
		rec := obs.NewRequest("queue.wait")
		// Each item gets the same per-request deadline a single-shot
		// /compile gets; the batch ctx cancels them all if the client
		// goes away.
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.reqTimeout)
		states[i] = itemState{id: id, rec: rec, tr: tr, cancel: cancel}
		item := item
		tasks[i] = sched.BatchTask{
			Ctx: ctx,
			Run: func(ctx context.Context) (any, error) {
				return s.compile(ctx, id, rec, item)
			},
		}
	}
	results := s.pool.Batch(r.Context(), tasks)
	for i := range states {
		states[i].cancel()
	}

	resp := batchResponse{Items: make([]batchItemResult, len(results))}
	allQueueFull := true
	for _, res := range results {
		st := states[res.Index]
		item := batchItemResult{Index: res.Index, ReqID: st.id, Status: http.StatusOK}
		var cresp *compileResponse
		if c, ok := res.Value.(*compileResponse); ok {
			cresp = c
			item.Response = c
		}
		if res.Err != nil {
			item.Status = httpStatus(res.Err)
			item.Error = res.Err.Error()
			resp.Failed++
		} else {
			resp.Succeeded++
		}
		if !errors.Is(res.Err, sched.ErrQueueFull) {
			allQueueFull = false
		}
		resp.Items[res.Index] = item
		s.retain(st.tr, reqtrace.Record{Route: "/compile/batch", Batch: batchID, UnixNS: t0.UnixNano()}, res.Err, cresp, st.rec)
	}
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "http.batch",
		slog.String("req", batchID), slog.Int("items", len(results)),
		slog.Int("ok", resp.Succeeded), slog.Int("failed", resp.Failed),
		slog.Int64("dur_us", time.Since(t0).Microseconds()))
	if allQueueFull {
		s.writeError(w, batchID, sched.ErrQueueFull)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
