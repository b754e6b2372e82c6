package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gcao/internal/bench"
)

// benchServer is a daemon configured as the repository benchmark runs it
// (benchmark/serve.go: -cache-entries 256 -flight 8192 -log-level error).
func benchServer(tb testing.TB) *server {
	s := newServer(serverConfig{
		reqTimeout:   30 * time.Second,
		cacheEntries: 256,
		flightSize:   8192,
		logW:         io.Discard,
		logLevel:     slog.LevelError,
	})
	tb.Cleanup(s.close)
	return s
}

// shallowBody is a serve-mix request body: shallow at problem size n on
// procs processors, comb, estimated, optionally executed.
func shallowBody(tb testing.TB, n, procs int, simulate bool, backend string) []byte {
	return shallowSourceBody(tb, "", n, procs, simulate, backend)
}

// shallowSourceBody is shallowBody with a suffix appended to the source
// text: a trailing comment makes the same program a source never seen.
func shallowSourceBody(tb testing.TB, suffix string, n, procs int, simulate bool, backend string) []byte {
	pr, err := bench.ByName("shallow", "main")
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(compileRequest{
		Source: pr.Source + suffix, Params: pr.Params(n), Procs: procs,
		Strategy: "comb", Estimate: true, Simulate: simulate, Backend: backend,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// serve answers one POST /compile in-process and returns the response
// body, or the error a status other than 200 is.
func serve(h http.Handler, body []byte) ([]byte, error) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", w.Code, w.Body)
	}
	return w.Body.Bytes(), nil
}

func mustServe(tb testing.TB, h http.Handler, body []byte) []byte {
	out, err := serve(h, body)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// BenchmarkHandleCompile is the per-layer view of the repository
// benchmark's serve-mix workload: one request of each of its four classes
// through the handler, no socket and no client — and, beside the cold
// class (a known source at a never-seen size, which the skeleton tier
// serves), cold-source: the same program as a text never seen, so source,
// skeleton and compile keys all miss. EXPERIMENTS.md reconciles the
// numbers, weighted 70/20/5/5, against serve-mix cpu_ms_per_op.
func BenchmarkHandleCompile(b *testing.B) {
	coldN := func(i int) int { return 128 + i*1237%4096 }
	for _, class := range []struct {
		name string
		body func(i int) []byte
	}{
		{"warm", func(int) []byte { return shallowBody(b, 64, 16, false, "") }},
		{"cold", func(i int) []byte { return shallowBody(b, coldN(i), 16, false, "") }},
		{"cold-source", func(i int) []byte {
			return shallowSourceBody(b, fmt.Sprintf("! %d\n", i), coldN(i), 16, false, "")
		}},
		{"exec-sim", func(int) []byte { return shallowBody(b, 32, 4, true, "") }},
		{"exec-native", func(int) []byte { return shallowBody(b, 32, 4, true, "native") }},
	} {
		b.Run(class.name, func(b *testing.B) {
			h := benchServer(b).handler()
			bodies := make([][]byte, b.N)
			for i := range bodies {
				bodies[i] = class.body(i)
			}
			// Prime what the class finds warm: its own request, or — cold —
			// the source at a size no iteration asks for.
			switch class.name {
			case "cold":
				mustServe(b, h, shallowBody(b, 64, 16, false, ""))
			case "cold-source":
			default:
				mustServe(b, h, bodies[0])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, body := range bodies {
				mustServe(b, h, body)
			}
		})
	}
}

// TestColdKnownSourceAllocs pins the serve-mix cold class through the
// handler: shallow at a never-seen size on a daemon that knows the source
// (compile-tier miss, skeleton hit, placement, estimate, reply) took 6,499
// allocations when every new size re-parsed and re-analysed the text,
// 2,078 with the skeleton tier, 1,558 once the analysis ran on dense
// indices, 1,453 once sem checked loop variables on a stack, and 745 once
// placement and the analysis tables allocated by the version, not by the
// group. It measured 742 before the body tier and 746 with it: a cold
// body is decoded whole and then kept, its bytes copied into the tier's
// key. It measured 493 (budget 540) once sem carved its symbols from
// slabs, the analysis its candidate lists from one, and the decision log
// formatted each position once per call (627 without that last), 457
// once the dependence memo kept one direction vector per class of (def,
// use) pair instead of one per pair and diagonal coalescing carved its
// lists from slabs, and 442 before the reply stopped carrying the
// request's metrics document, 396 before a placement kept its redundancy
// and position tables by entry ID instead of in two maps, 391 before the
// analysis layers carved their tables from slabs sized by counts, and 361
// when the pin was last set (budget within 10 %).
func TestColdKnownSourceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves stack allocations to the heap")
	}
	h := benchServer(t).handler()
	mustServe(t, h, shallowBody(t, 64, 16, false, ""))
	n := 128
	allocs := testing.AllocsPerRun(40, func() {
		n++
		mustServe(t, h, shallowBody(t, n, 16, false, ""))
	})
	// shallowBody itself marshals the request: 30 allocations of the count.
	const budget = 397
	t.Logf("cold request, known source: %.0f allocs", allocs)
	if allocs > budget {
		t.Errorf("a cold request for a known source allocates %.0f times, budget %d", allocs, budget)
	}
}

// TestWarmRequestAllocs pins the serve-mix warm class through the handler:
// a request whose body the daemon served before (body-tier hit, compile
// and place hits, kept estimate, reply). It took 122 allocations when
// every request decoded its body and walked the estimate again, and 106
// while the reply carried the request's metrics document; 92 when the
// pin was last set (budget within 10 %).
func TestWarmRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves stack allocations to the heap")
	}
	h := benchServer(t).handler()
	body := shallowBody(t, 64, 16, false, "")
	mustServe(t, h, body)
	allocs := testing.AllocsPerRun(100, func() { mustServe(t, h, body) })
	const budget = 101
	t.Logf("warm request: %.0f allocs", allocs)
	if allocs > budget {
		t.Errorf("a warm request allocates %.0f times, budget %d", allocs, budget)
	}
}
