// gcaod is the serving-mode daemon of the reproduction: a long-lived
// HTTP service that compiles mini-HPF routines on demand and makes the
// observability layer externally consumable — the step from PR 1's
// per-process recorder to telemetry that survives the request.
//
// Endpoints:
//
//	POST /compile                    source in, placement report + metrics doc out
//	GET  /metrics                    Prometheus text exposition of the global registry
//	GET  /healthz                    liveness + version + uptime + request count
//	GET  /debug/cache                compilation-cache, scheduler and flight-recorder counters
//	GET  /debug/flightrecorder       recent and slow/errored request summaries; ?has=<facet> filters
//	GET  /debug/flightrecorder/{id}  one request's phase summary and spans, or with
//	                                 ?facet=decisions|critpath|nativeprof its placement decision
//	                                 log, its blame ranking and critical path (?g= ?L= override
//	                                 the cost model), or its native runtime profile
//	GET  /debug/pprof/...            net/http/pprof
//
// Live numbers are /metrics scraped twice: a request rate is the
// difference of gcao_http_requests_total between two scrapes over the
// time between them, and latency quantiles come from the _bucket series.
//
// Every response carries an X-Request-Id header and a W3C traceparent
// (ingested from the client's, or minted); error bodies repeat the id
// so a failure report is joinable against the flight recorder
// (/debug/flightrecorder/{id} resolves the id to the request's spans:
// the phases its wall time went to — queue wait, cache probe + compile,
// place, simulate — and the pipeline spans that ran inside each).
//
// Repeated and concurrent identical requests are served from a
// content-addressed compilation cache, and a body the daemon served
// before is not decoded again (-cache-entries and -cache-bytes bound
// each tier); compile work runs on a bounded worker pool (-workers,
// -queue-depth) that sheds load with 429 when the admission queue is
// full, with a Retry-After derived from the scheduler's own drain
// estimate. The daemon shuts down gracefully on SIGINT/SIGTERM and
// bounds every compile with -timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request compile timeout")
	logLevel := flag.String("log-level", "info", "structured log threshold: debug, info, warn, error")
	cacheEntries := flag.Int("cache-entries", 1024, "max entries per cache tier (the compilation tiers and the body tier)")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "max bytes each cache tier holds, counted (the compilation tiers and the body tier)")
	workers := flag.Int("workers", 0, "compile worker goroutines (0: GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 64, "compile admission queue depth; overflow is a 429")
	flightSize := flag.Int("flight", 256, "finished requests retained by the flight recorder (and by its slow/errored store)")
	slowThreshold := flag.Duration("slow-threshold", 500*time.Millisecond, "wall time at or above which a request's trace is retained as slow")
	showVersion := flag.Bool("version", false, "print build version and exit")
	flag.Parse()

	version := buildVersion()
	if *showVersion {
		fmt.Println("gcaod", version)
		return
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(err)
	}
	s := newServer(serverConfig{
		reqTimeout:    *timeout,
		cacheEntries:  *cacheEntries,
		cacheBytes:    *cacheBytes,
		workers:       *workers,
		queueDepth:    *queueDepth,
		flightSize:    *flightSize,
		slowThreshold: *slowThreshold,
		version:       version,
		logW:          os.Stderr,
		logLevel:      level,
	})
	defer s.close()
	srv := &http.Server{Addr: *addr, Handler: s.handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	s.log.Info("gcaod.start",
		"addr", *addr, "version", version, "timeout", timeout.String(),
		"cache_entries", s.cfg.cacheEntries, "cache_bytes", s.cfg.cacheBytes,
		"workers", s.cfg.workers, "queue_depth", s.cfg.queueDepth)

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}
	s.log.Info("gcaod.shutdown", "requests", s.reg.Requests())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

// buildVersion derives a build identity from the embedded VCS stamp:
// the short revision (with a -dirty suffix for modified trees), or
// "dev" when the binary was built without VCS information.
func buildVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	var rev, dirty string
	for _, kv := range info.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			if kv.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	if rev == "" {
		return "dev"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + dirty
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gcaod:", err)
	os.Exit(1)
}
