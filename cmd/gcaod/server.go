package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"gcao"
	"gcao/internal/cache"
	"gcao/internal/heapsize"
	"gcao/internal/native"
	"gcao/internal/obs"
	"gcao/internal/obs/reqtrace"
	"gcao/internal/sched"
)

// serverConfig are the daemon's tunables; main fills them from flags,
// tests construct them directly.
type serverConfig struct {
	// reqTimeout bounds one /compile request end to end.
	reqTimeout time.Duration
	// maxBody bounds a request body in bytes; a larger body is a 413.
	maxBody int64
	// cacheEntries and cacheBytes size each tier of the
	// content-addressed compilation cache, and the body tier.
	cacheEntries int
	cacheBytes   int64
	// workers and queueDepth bound the compile scheduler; admission
	// overflow is a 429.
	workers    int
	queueDepth int
	// flightSize bounds the flight recorder's main ring and its
	// slow/errored store — the one place a finished request is retained;
	// slowThreshold marks requests at or above it for longer retention.
	flightSize    int
	slowThreshold time.Duration
	// version identifies the build in /healthz, gcao_build_info and
	// the startup log.
	version string
	// logW + logLevel configure the structured event log (nil logW:
	// io.Discard).
	logW     io.Writer
	logLevel slog.Level
}

// server is the gcaod daemon state: one process-global metrics
// registry every request is absorbed into, the content-addressed
// compilation cache and the body tier in front of it, the bounded compile
// scheduler, the flight recorder that retains finished requests, the
// structured event log, and a request sequence for ids.
type server struct {
	cfg   serverConfig
	reg   *gcao.Registry
	cache *gcao.Cache
	// bodies maps a /compile body, byte for byte, to the request it
	// decodes to; it holds only bodies whose request succeeded.
	bodies *cache.Cache
	pool   *sched.Pool
	flight *reqtrace.FlightRecorder
	log    *gcao.Logger
	start  time.Time
	seq    atomic.Int64
	// inflight counts HTTP requests currently inside the middleware.
	inflight atomic.Int64

	// testHook, when non-nil, runs at the start of every compile job;
	// tests use it to hold workers busy deterministically.
	testHook func()
}

func newServer(cfg serverConfig) *server {
	if cfg.reqTimeout <= 0 {
		cfg.reqTimeout = 30 * time.Second
	}
	if cfg.maxBody <= 0 {
		cfg.maxBody = 4 << 20
	}
	if cfg.cacheEntries <= 0 {
		cfg.cacheEntries = 1024
	}
	if cfg.cacheBytes <= 0 {
		cfg.cacheBytes = 256 << 20
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if cfg.queueDepth <= 0 {
		cfg.queueDepth = 64
	}
	if cfg.flightSize <= 0 {
		cfg.flightSize = 256
	}
	if cfg.slowThreshold <= 0 {
		cfg.slowThreshold = 500 * time.Millisecond
	}
	if cfg.version == "" {
		cfg.version = "dev"
	}
	if cfg.logW == nil {
		cfg.logW = io.Discard
	}
	s := &server{
		cfg:    cfg,
		reg:    gcao.NewRegistry(),
		cache:  gcao.NewCache(gcao.CacheOptions{MaxEntries: cfg.cacheEntries, MaxBytes: cfg.cacheBytes}),
		bodies: cache.New(cfg.cacheEntries, cfg.cacheBytes),
		pool:   sched.New(cfg.workers, cfg.queueDepth),
		flight: reqtrace.NewFlightRecorder(cfg.flightSize, cfg.flightSize, cfg.slowThreshold),
		log:    gcao.NewLogger(cfg.logW, cfg.logLevel),
		start:  time.Now(),
	}
	s.reg.SetCacheStatsFunc(s.cacheTierStats)
	s.reg.SetBuildInfo(cfg.version)
	s.reg.SetServerStatsFunc(s.serverStats)
	s.pool.SetQueueWaitObserver(func(d time.Duration) {
		s.reg.ObserveQueueWait(d.Seconds())
	})
	return s
}

// cacheTierStats adapts the cache snapshot to the registry's
// gcao_cache_* exposition families.
func (s *server) cacheTierStats() []obs.CacheTierStats {
	st := s.cache.Stats()
	tier := func(name string, t gcao.CacheTierStats) obs.CacheTierStats {
		return obs.CacheTierStats{
			Tier:          name,
			Entries:       t.Entries,
			Bytes:         t.Bytes,
			Hits:          t.Hits,
			Misses:        t.Misses,
			InflightWaits: t.InflightWaits,
			Evictions:     t.Evictions,
		}
	}
	return []obs.CacheTierStats{tier("compile", st.Compile), tier("place", st.Place), tier("skeleton", st.Skeleton),
		tier("body", s.bodies.Stats())}
}

// cacheStats is the /debug/cache view of the tiers: the compilation
// cache's three and the body tier.
type cacheStats struct {
	gcao.CacheStats
	Body gcao.CacheTierStats `json:"body"`
}

// close releases the worker pool; queued jobs fail with ErrClosed.
func (s *server) close() { s.pool.Close() }

// handler builds the daemon's route table, wrapped in the withObs
// ingress middleware (request ids, trace context, RED metrics). The
// per-request deadline lives inside handleCompile (a context, not
// http.TimeoutHandler, so timed-out responses still carry the request
// id).
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", s.handleCompile)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/cache", s.handleCacheStats)
	mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightList)
	mux.HandleFunc("GET /debug/flightrecorder/{id}", s.handleFlight)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s.withObs(mux)
}

// compileRequest is the POST /compile body.
type compileRequest struct {
	// Source is the mini-HPF text; Main selects the entry routine of a
	// multi-routine program (empty: Source is a single routine).
	Source string `json:"source"`
	Main   string `json:"main,omitempty"`
	// Params binds the routine's integer parameters; Procs is the
	// processor count.
	Params map[string]int `json:"params"`
	Procs  int            `json:"procs"`
	// Strategy is "orig", "nored" or "comb" (default comb), or "all"
	// to place every version of the one cached compilation and report
	// them side by side; Machine is "SP2" or "NOW" (default SP2).
	Strategy string `json:"strategy,omitempty"`
	Machine  string `json:"machine,omitempty"`
	// Estimate adds the analytic cost model's verdict; Simulate runs
	// the functional simulator (small instances only — it executes the
	// program) and fills the communication profile.
	Estimate bool `json:"estimate,omitempty"`
	Simulate bool `json:"simulate,omitempty"`
	// Backend selects how Simulate executes the program: "sim" (the
	// default BSP simulator) or "native", which additionally runs the
	// placement as real goroutines and reports the measured wall clock
	// and message traffic.
	Backend string `json:"backend,omitempty"`
}

// compileResponse is the POST /compile result: the placement report,
// how the cache satisfied the request and what the request asked to
// have run. What the request's recorder measured is its flight record's,
// under the same id.
type compileResponse struct {
	ReqID    string         `json:"req_id"`
	Strategy string         `json:"strategy"`
	Machine  string         `json:"machine"`
	Messages int            `json:"messages"`
	Counts   map[string]int `json:"counts"`
	Cache    *cacheDoc      `json:"cache,omitempty"`
	Estimate *estimateDoc   `json:"estimate,omitempty"`
	Simulate *simulateDoc   `json:"simulate,omitempty"`
	Native   *nativeReport  `json:"native,omitempty"`
	// Versions holds the per-strategy reports of a strategy:"all"
	// request, in orig, nored, comb order.
	Versions []versionDoc `json:"versions,omitempty"`
}

// versionDoc is one strategy's report inside a strategy:"all"
// response.
type versionDoc struct {
	Strategy string         `json:"strategy"`
	Messages int            `json:"messages"`
	Counts   map[string]int `json:"counts"`
	Place    string         `json:"place"` // cache outcome of this placement
	Estimate *estimateDoc   `json:"estimate,omitempty"`
}

// cacheDoc reports how each tier satisfied the request: "hit", "miss"
// or "dedup" (coalesced onto a concurrent identical request). Skeleton is
// present when the compile tier missed — a known source at a new size is
// compile "miss", skeleton "hit".
type cacheDoc struct {
	Compile  string `json:"compile"`
	Place    string `json:"place"`
	Skeleton string `json:"skeleton,omitempty"`
}

type estimateDoc struct {
	CPUSeconds float64 `json:"cpu_seconds"`
	NetSeconds float64 `json:"net_seconds"`
	Messages   float64 `json:"messages"`
	Bytes      float64 `json:"bytes"`
}

type simulateDoc struct {
	DynMessages int   `json:"dyn_messages"`
	BytesMoved  int64 `json:"bytes_moved"`
	Barriers    int   `json:"barriers"`
}

// nativeReport is the `native` object of a response: the run's Stats
// record as it is (its JSON tags are the wire names) and — since every
// daemon-served native run is profiled — the headline read from the
// run's profile: compute skew and total blocked time.
type nativeReport struct {
	native.Stats
	SkewRatio      float64 `json:"skew_ratio,omitempty"`
	BlockedSeconds float64 `json:"blocked_seconds,omitempty"`
}

// execute is the execution tail of a request, after placement: run the
// placed program on the BSP simulator and, for backend:"native", on the
// profiled native engine as well, and fill the response and the
// registry from the results.
// The profile itself stays on the recorder for the flight record's
// nativeprof facet. Each run takes an engine from the cached placement's
// pools; the response holds copies of what it reports, so the engines go
// back when execute returns.
func (s *server) execute(resp *compileResponse, req compileRequest, placed *gcao.Placed, m gcao.Machine, rec *obs.Recorder) error {
	if !req.Simulate {
		return nil
	}
	rec.Phase("simulate")
	run, err := placed.Simulate(m, rec)
	if err != nil {
		return badRequestError{fmt.Errorf("simulate: %w", err)}
	}
	defer run.Release()
	resp.Simulate = &simulateDoc{
		DynMessages: run.Ledger.DynMessages,
		BytesMoved:  int64(run.Ledger.BytesMoved),
		Barriers:    run.Ledger.Barriers,
	}
	if req.Backend != "native" {
		return nil
	}
	rec.Phase("native.exec")
	nat, err := placed.RunNative(rec)
	if err != nil {
		return badRequestError{fmt.Errorf("native: %w", err)}
	}
	defer nat.Release()
	resp.Native = &nativeReport{Stats: nat.Stats}
	if np := nat.Profile; np != nil {
		resp.Native.SkewRatio, resp.Native.BlockedSeconds = np.SkewRatio, np.BlockedSeconds
	}
	s.reg.ObserveNativeExec(placed.Result.Version.String(), nat.Stats, nat.Profile)
	return nil
}

func (s *server) handleCompile(w http.ResponseWriter, r *http.Request) {
	tr, rec := reqtrace.FromContext(r.Context())
	id := tr.ReqID()
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.reqTimeout)
	defer cancel()
	var resp *compileResponse
	var req compileRequest
	known := false
	body, err := readBody(r, s.cfg.maxBody)
	if err == nil {
		req, known, err = s.compileBody(body, rec)
	}
	if err == nil {
		// The queue.wait phase runs from admission until a worker picks
		// the job up; compile() opens the next phase at that instant.
		rec.Phase("queue.wait")
		var v any
		v, err = s.pool.Submit(ctx, func(ctx context.Context) (any, error) {
			return s.compile(ctx, id, rec, req)
		})
		if c, ok := v.(*compileResponse); ok {
			resp = c
		}
	}
	if err == nil && !known {
		s.bodies.Add(string(body), req, bodyBytes(body, req))
	}
	rec.Phase("finalize")
	// The request is retained before the response is written: a client
	// may follow its X-Request-Id to /debug/flightrecorder/{id} the
	// moment it has the body.
	status := s.retain(tr, t0, err, resp, rec)
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "http.compile",
		slog.String("req", id), slog.String("status", status),
		slog.Int64("dur_us", time.Since(t0).Microseconds()))
	if err != nil {
		s.writeError(w, id, err)
	} else {
		writeJSON(w, http.StatusOK, resp)
	}
}

// badRequestError marks client-side failures (malformed body, unknown
// strategy/machine, source that does not compile).
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

// payloadTooLargeError marks a body over the maxBody bound.
type payloadTooLargeError struct{ err error }

func (e payloadTooLargeError) Error() string { return e.err.Error() }
func (e payloadTooLargeError) Unwrap() error { return e.err }

func httpStatus(err error) int {
	var big payloadTooLargeError
	if errors.As(err, &big) {
		return http.StatusRequestEntityTooLarge
	}
	var bad badRequestError
	if errors.As(err, &bad) {
		return http.StatusBadRequest
	}
	switch {
	case errors.Is(err, sched.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, sched.ErrClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// writeError maps an error to its status and JSON body (which always
// carries the request id); queue overflows carry a Retry-After derived
// from the scheduler's drain estimate so well-behaved clients back off
// proportionally to the actual backlog.
func (s *server) writeError(w http.ResponseWriter, id string, err error) {
	code := httpStatus(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
	}
	writeJSON(w, code, map[string]string{"req_id": id, "error": err.Error()})
}

// writeErrMsg writes a plain error body carrying the middleware's
// request id, for handler-local failures (bad query params, unknown
// ids).
func (s *server) writeErrMsg(w http.ResponseWriter, r *http.Request, code int, msg string) {
	writeJSON(w, code, map[string]string{"req_id": reqID(r), "error": msg})
}

// readBody reads a request body whole into a buffer presized from its
// Content-Length, classifying a body over maxBody bytes (413).
func readBody(r *http.Request, maxBody int64) ([]byte, error) {
	var buf bytes.Buffer
	if r.ContentLength <= maxBody {
		// Room for the declared length and for the read that meets EOF,
		// so a body of the length it declares is read into one allocation.
		buf.Grow(int(max(r.ContentLength, 0)) + bytes.MinRead)
		if _, err := buf.ReadFrom(&io.LimitedReader{R: r.Body, N: maxBody + 1}); err != nil {
			return nil, badRequestError{fmt.Errorf("reading request: %w", err)}
		}
	}
	if r.ContentLength > maxBody || int64(buf.Len()) > maxBody {
		return nil, payloadTooLargeError{fmt.Errorf("request body exceeds %d bytes", maxBody)}
	}
	return buf.Bytes(), nil
}

// compileBody returns the request a /compile body holds: from the body
// tier when the same bytes were served before, else decoded as one JSON
// value (anything but whitespace after it is malformed, as a body that
// does not parse is: 400). The tier is keyed by the bytes themselves,
// not a fingerprint of them: its value is read from exactly those bytes,
// so equal bytes are the exact match, and a lookup hashes the body once
// instead of digesting it and then hashing the digest.
func (s *server) compileBody(body []byte, rec *obs.Recorder) (req compileRequest, known bool, err error) {
	if v, ok := s.bodies.Get(body); ok {
		rec.Add("cache.body.hit", 1)
		return v.(compileRequest), true, nil
	}
	rec.Add("cache.body.miss", 1)
	if err := json.Unmarshal(body, &req); err != nil {
		return req, false, badRequestError{fmt.Errorf("decoding request: %w", err)}
	}
	return req, false, nil
}

// bodyBytes is what a body-tier entry holds: the body as its key, the
// request it decodes to with the strings decoding made for it, and its
// parameter map's keys and values.
func bodyBytes(body []byte, req compileRequest) int64 {
	n := int64(len(body)) + heapsize.Of(&req) + heapsize.Map(req.Params) +
		int64(len(req.Source)+len(req.Main)+len(req.Strategy)+len(req.Machine)+len(req.Backend))
	for k := range req.Params {
		n += int64(len(k))
	}
	return n
}

// strategies are what strategy:"all" places, in response order: the
// paper's algorithm last.
var strategies = [...]gcao.Strategy{gcao.Vectorize, gcao.EarliestRedundancy, gcao.Combine}

// compile runs one request through the cached pipeline on the request's
// recorder. The phases opened here (compile, place, estimate, simulate)
// follow the handler's queue.wait gap-free, so their durations account
// for the request's wall time, and the pipeline spans nest inside them.
//
// The job honours its context: a worker that picks it up after its
// deadline has passed runs nothing, and a deadline that passes during
// the compile stops it before the next placement.
func (s *server) compile(ctx context.Context, id string, rec *obs.Recorder, req compileRequest) (*compileResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rec.Phase("compile")
	if s.testHook != nil {
		s.testHook()
	}
	all := req.Strategy == "all"
	strats := strategies[:]
	if !all {
		strategy, err := gcao.StrategyByName(req.Strategy)
		if err != nil {
			return nil, badRequestError{err}
		}
		strats = []gcao.Strategy{strategy}
	}
	machineName := req.Machine
	if machineName == "" {
		machineName = "SP2"
	}
	m, err := gcao.MachineByName(machineName)
	if err != nil {
		return nil, badRequestError{err}
	}
	if req.Backend != "" && req.Backend != "sim" && req.Backend != "native" {
		return nil, badRequestError{fmt.Errorf("unknown backend %q (want sim or native)", req.Backend)}
	}
	cfg := gcao.Config{
		Params: req.Params,
		Procs:  req.Procs,
		Obs:    rec,
	}
	c, compOut, err := s.cache.CompileProgram(req.Source, req.Main, cfg)
	if err != nil {
		return nil, badRequestError{err}
	}
	cached := &cacheDoc{Compile: compOut.Compile.String()}
	rec.SetAttr("cache", cached.Compile)
	if compOut.Compile == gcao.CacheMiss {
		// Only a compile-tier miss went through the skeleton tier.
		cached.Skeleton = compOut.Skeleton.String()
		rec.SetAttr("skeleton", cached.Skeleton)
	}
	resp := &compileResponse{ReqID: id, Strategy: "all", Machine: m.Name, Cache: cached}

	// The strategies are placed one after another on this request's pool
	// worker: the pool already serves requests in parallel, and the
	// placements share the request's recorder, whose span depth is one
	// counter — run concurrently, the sibling place:<v> spans would record
	// several depths. The scalar fields report the last placement: the
	// paper's algorithm for strategy:"all".
	rec.Phase("place")
	var placed [len(strategies)]*gcao.Placed
	for i, strat := range strats {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, out, err := s.cache.Place(c, strat, rec)
		if err != nil {
			return nil, badRequestError{fmt.Errorf("%s: %w", strat, err)}
		}
		placed[i] = p
		resp.Messages, resp.Counts = p.Messages(), countsOf(p)
		if all {
			resp.Versions = append(resp.Versions, versionDoc{
				Strategy: strat.String(),
				Messages: resp.Messages,
				Counts:   resp.Counts,
				Place:    out.String(),
			})
		} else {
			resp.Strategy, cached.Place = strat.String(), out.String()
			rec.SetAttr("cache", cached.Place)
		}
	}
	if req.Estimate {
		rec.Phase("estimate")
		for i := range strats {
			est, err := s.estimate(placed[i], m)
			if err != nil {
				return nil, err
			}
			if all {
				resp.Versions[i].Estimate = est
			} else {
				resp.Estimate = est
			}
		}
	}
	if err := s.execute(resp, req, placed[len(strats)-1], m, rec); err != nil {
		return nil, err
	}
	return resp, nil
}

// countsOf reports a placement's message counts by communication kind.
func countsOf(placed *gcao.Placed) map[string]int {
	counts := map[string]int{}
	for kind, n := range placed.MessageCounts() {
		counts[kind.String()] = n
	}
	return counts
}

// estimate asks the analytic cost model for one placement's verdict and
// feeds it to the bytes-moved histogram, which an estimate-only request
// reaches no other way.
func (s *server) estimate(placed *gcao.Placed, m gcao.Machine) (*estimateDoc, error) {
	version := placed.Result.Version.String()
	cost, err := placed.Estimate(m)
	if err != nil {
		return nil, badRequestError{fmt.Errorf("estimate %s: %w", version, err)}
	}
	s.reg.ObserveBytes(version, cost.Bytes)
	return &estimateDoc{CPUSeconds: cost.CPU, NetSeconds: cost.Net, Messages: cost.Messages, Bytes: cost.Bytes}, nil
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.log.Error("http.metrics", "err", err.Error())
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"version":        s.cfg.version,
		"go":             runtime.Version(),
		"uptime_seconds": time.Since(s.start).Seconds(),
		"requests":       s.reg.Requests(),
	})
}

// handleCacheStats serves the cache tiers' and scheduler's counters as
// JSON for operators (the same numbers /metrics exposes for scraping).
func (s *server) handleCacheStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"cache":     cacheStats{s.cache.Stats(), s.bodies.Stats()},
		"scheduler": s.pool.Stats(),
		"flight":    s.flight.Stats(),
	})
}

// defaultListLimit bounds the /debug/flightrecorder listing when the
// client does not pass ?limit=N: enough to page through recent traffic
// without dumping the whole ring.
const defaultListLimit = 50

// listLimit parses ?limit=N (default defaultListLimit; limit=0 or a
// negative value returns everything retained).
func listLimit(r *http.Request) (int, error) {
	q := r.URL.Query().Get("limit")
	if q == "" {
		return defaultListLimit, nil
	}
	n, err := strconv.Atoi(q)
	if err != nil {
		return 0, fmt.Errorf("bad limit %q: %v", q, err)
	}
	return n, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
