GO ?= go

.PHONY: all build test vet fmt-check race check bench-build attr-smoke obs-smoke native-smoke nativeprof-smoke examples-smoke fuzz-smoke size reach

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails (and lists the offenders) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

race:
	$(GO) test -race ./...

# check is what a change must pass: every test once (`make test` holds the
# Fig. 10(a) counts, the goldens, bit-identity of every backend and each
# allocation pin), the race detector over the four packages whose tests
# share one structure between goroutines without locks — an Analysis, a
# skeleton, a lowered Program under two engines, a sharded simulator run —
# and the checks `go test ./...` cannot make. CI's `make race` runs the
# detector over the whole tree.
check: build vet fmt-check test bench-build examples-smoke size reach
	$(GO) test -race . ./internal/core ./internal/native ./internal/spmd

# size prints the non-test Go lines of the algorithm, the execution
# layers, the observability layer, the command-line front ends and the
# whole tree outside benchmark/ — the table ROADMAP's "Size:" paragraph
# is kept from. A report for every row but one: it fails when the
# observability layer and the command-line front ends (internal/obs/...,
# internal/native/prof and cmd/*) exceed their 4,900-line budget,
# ROADMAP item 6(a).
size:
	@sh ci/size.sh

# reach fails on a shipped function no binary reaches: it links gcaod,
# hpfc, the examples and the benchmark/ driver with inlining off and the
# linker's dependency dump on, and every non-test func declaration
# outside benchmark/ must be reached by one of them or be listed in
# ci/test-oracles.txt — a test oracle another package's tests call,
# README-documented API, or an interface marker method. An entry that
# names no declaration, names a reached one, or cites a test `go test
# -list` does not list fails it too.
reach:
	@GO="$(GO)" sh ci/reach.sh

# bench-build covers what ./... cannot see: the nested benchmark/ module
# imports internal/plan, internal/spmd and internal/runtime, so it has to
# keep compiling (and passing its quick tests) when those change. It also
# holds the import boundary of the one-evaluator design: the execution
# backends run the lowered program and never the AST — only the analytic
# estimator (spmd/estimate.go) reads it. Two greps of the same kind hold
# what the serving path must not pay per request: a stop-the-world read of
# the allocation counter (spans read runtime/metrics) and a retention ring
# that evicts by shifting itself down (internal/obs/ring overwrites).
bench-build:
	$(GO) vet -C benchmark .
	$(GO) test -C benchmark -short .
	@bad="$$(grep -l '"gcao/internal/ast"' internal/native/*.go internal/spmd/*.go | grep -v -e '_test\.go$$' -e '^internal/spmd/estimate\.go$$')"; \
	if [ -n "$$bad" ]; then echo "bench-build: execution backend imports gcao/internal/ast:"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -rn ReadMemStats --include='*.go' . | grep -v -e '_test\.go:' -e '^\./benchmark/')"; \
	if [ -n "$$bad" ]; then echo "bench-build: ReadMemStats stops the world; read runtime/metrics:"; echo "$$bad"; exit 1; fi
	@bad="$$(grep -rnE 'copy\(([A-Za-z_.]+), *\1\[1:\]\)' --include='*.go' internal/obs)"; \
	if [ -n "$$bad" ]; then echo "bench-build: shifting eviction in internal/obs (use internal/obs/ring):"; echo "$$bad"; exit 1; fi

# attr-smoke proves the cost-attribution path end to end through the
# binary: compile and simulate one benchmark with -blame and a Chrome
# trace, and assert the trace's superstep lane came out non-empty and
# carries h-relations (the CI job keeps the trace). hpfc profile's stdout
# is held to its goldens by `go test ./cmd/hpfc`.
attr-smoke:
	@mkdir -p out
	$(GO) run ./cmd/hpfc profile -bench shallow -procs 4 -version comb \
		-blame 5 -trace-out out/attr-trace.json
	@grep -q '"tid":2' out/attr-trace.json || { echo "attr-smoke: trace lacks the superstep lane"; exit 1; }
	@grep -q '"h_in"' out/attr-trace.json || { echo "attr-smoke: trace lacks h-relations"; exit 1; }
	@echo "attr-smoke: ok (trace at out/attr-trace.json)"

# obs-smoke proves the daemon and its request-tracing path end to end
# against a live gcaod at -log-level debug: compile once (a cache miss,
# whose reply holds no metrics document), take the response's
# X-Request-Id, resolve it at
# /debug/flightrecorder/{id} to spans with the expected phases and the
# place:comb pipeline span
# and, by ?facet=decisions, to its placement decision log, find it in
# the ?has=decisions listing, and scrape /metrics around one more compile:
# the repeat is served from the body, compile and place tiers, the RED,
# phase-histogram, cache and build-info families are there, and the
# /compile request counter went from 1 to 2 — a request rate is that
# difference over the time between the scrapes (the second scrape lands
# in out/ for CI artifacts). /debug/cache and /healthz answer last.
obs-smoke:
	@mkdir -p out
	$(GO) build -o out/gcaod ./cmd/gcaod
	@set -e; \
	./out/gcaod -addr 127.0.0.1:8377 -log-level debug 2>out/obs-gcaod.log & \
	daemon=$$!; \
	trap 'kill $$daemon 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:8377/healthz >/dev/null 2>&1 && break; \
		sleep 0.2; \
	done; \
	printf '%s' '{"source": "routine smooth(n, steps)\nreal a(0:n+1, 0:n+1), b(0:n+1, 0:n+1)\n!hpf$$ distribute (block, block) :: a, b\ndo i = 0, n + 1\ndo j = 0, n + 1\na(i, j) = 1.0 + i * 0.1 + j * 0.01\nb(i, j) = 0.0\nenddo\nenddo\ndo it = 1, steps\ndo i = 1, n\ndo j = 1, n\nb(i, j) = 0.25 * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))\nenddo\nenddo\ndo i = 1, n\ndo j = 1, n\na(i, j) = b(i, j)\nenddo\nenddo\nenddo\nend\n", "params": {"n": 16, "steps": 2}, "procs": 4, "strategy": "comb", "estimate": true}' > out/obs-req.json; \
	curl -fsS -D out/obs-headers.txt -X POST -H 'Content-Type: application/json' \
		--data @out/obs-req.json http://127.0.0.1:8377/compile > out/obs-compile.json; \
	grep -q '"req_id"' out/obs-compile.json || { echo "obs-smoke: compile reply lacks req_id"; exit 1; }; \
	if grep -q '"metrics"' out/obs-compile.json; then echo "obs-smoke: compile reply restates the flight record's metrics"; exit 1; fi; \
	grep -q '"compile":"miss"' out/obs-compile.json || { echo "obs-smoke: first compile is not a cache miss"; exit 1; }; \
	grep -qi '^x-request-id:' out/obs-headers.txt || { echo "obs-smoke: no X-Request-Id header"; exit 1; }; \
	grep -qi '^traceparent: 00-' out/obs-headers.txt || { echo "obs-smoke: no traceparent header"; exit 1; }; \
	rid=$$(grep -i '^x-request-id:' out/obs-headers.txt | tr -d '\r' | awk '{print $$2}'); \
	echo "obs-smoke: request id $$rid"; \
	curl -fsS "http://127.0.0.1:8377/debug/flightrecorder/$$rid" > out/obs-flight.json; \
	grep -q '"phases"' out/obs-flight.json || { echo "obs-smoke: flight record lacks phases"; exit 1; }; \
	grep -q '"compile"' out/obs-flight.json || { echo "obs-smoke: flight record lacks a compile phase"; exit 1; }; \
	grep -q '"queue.wait"' out/obs-flight.json || { echo "obs-smoke: flight record lacks queue wait"; exit 1; }; \
	grep -q '"spans"' out/obs-flight.json || { echo "obs-smoke: flight record lacks its spans"; exit 1; }; \
	grep -q '"name":"place:comb"' out/obs-flight.json || { echo "obs-smoke: flight record lacks the place:comb span"; exit 1; }; \
	grep -q '"decisions"' out/obs-flight.json || { echo "obs-smoke: flight record does not name its decisions facet"; exit 1; }; \
	curl -fsS "http://127.0.0.1:8377/debug/flightrecorder/$$rid?facet=decisions" > out/obs-decisions.json; \
	grep -q '"outcome"' out/obs-decisions.json || { echo "obs-smoke: decisions facet holds no decision"; exit 1; }; \
	curl -fsS "http://127.0.0.1:8377/debug/flightrecorder?has=decisions" | grep -q "\"id\":\"$$rid\"" || { echo "obs-smoke: ?has=decisions does not list the request"; exit 1; }; \
	curl -fsS http://127.0.0.1:8377/metrics > out/obs-metrics-before.txt; \
	grep -qxF 'gcao_http_requests_total{code="200",route="/compile"} 1' out/obs-metrics-before.txt || { echo "obs-smoke: /compile counter is not 1 after one compile"; exit 1; }; \
	curl -fsS -X POST -H 'Content-Type: application/json' --data @out/obs-req.json http://127.0.0.1:8377/compile > out/obs-compile2.json; \
	grep -q '"compile":"hit"' out/obs-compile2.json || { echo "obs-smoke: repeat compile is not a compile-tier hit"; exit 1; }; \
	grep -q '"place":"hit"' out/obs-compile2.json || { echo "obs-smoke: repeat compile is not a place-tier hit"; exit 1; }; \
	curl -fsS http://127.0.0.1:8377/metrics > out/obs-metrics.txt; \
	grep -q 'gcao_build_info{version=' out/obs-metrics.txt || { echo "obs-smoke: no build info metric"; exit 1; }; \
	grep -qxF 'gcao_http_requests_total{code="200",route="/compile"} 2' out/obs-metrics.txt || { echo "obs-smoke: /compile counter did not go from 1 to 2"; exit 1; }; \
	grep -q 'gcao_queue_wait_seconds_count{pool="compile"}' out/obs-metrics.txt || { echo "obs-smoke: no queue wait histogram"; exit 1; }; \
	grep -q 'gcao_requests_total{status="ok"} 2' out/obs-metrics.txt || { echo "obs-smoke: ok request counter is not 2"; exit 1; }; \
	grep -q 'gcao_phase_seconds_bucket' out/obs-metrics.txt || { echo "obs-smoke: no phase histogram buckets"; exit 1; }; \
	grep -qE 'gcao_phase_seconds_count\{phase="parse"\} [1-9]' out/obs-metrics.txt || { echo "obs-smoke: no parse phase observed"; exit 1; }; \
	grep -q 'gcao_cache_hits_total{tier="compile"} 1' out/obs-metrics.txt || { echo "obs-smoke: compile tier hits are not 1"; exit 1; }; \
	grep -q 'gcao_cache_misses_total{tier="compile"} 1' out/obs-metrics.txt || { echo "obs-smoke: compile tier misses are not 1"; exit 1; }; \
	grep -qxF 'gcao_cache_misses_total{tier="body"} 1' out/obs-metrics.txt || { echo "obs-smoke: body tier misses are not 1"; exit 1; }; \
	grep -qxF 'gcao_cache_hits_total{tier="body"} 1' out/obs-metrics.txt || { echo "obs-smoke: the repeated body is not a body-tier hit"; exit 1; }; \
	curl -fsS http://127.0.0.1:8377/debug/cache > out/obs-cache.json; \
	grep -q '"hits":1' out/obs-cache.json || { echo "obs-smoke: /debug/cache counts no hit"; exit 1; }; \
	grep -q '"body":{' out/obs-cache.json || { echo "obs-smoke: /debug/cache does not list the body tier"; exit 1; }; \
	curl -fsS http://127.0.0.1:8377/healthz | grep -q '"version"' || { echo "obs-smoke: /healthz lacks the version"; exit 1; }; \
	kill $$daemon 2>/dev/null || true; \
	wait $$daemon 2>/dev/null || true
	@echo "obs-smoke: ok (metrics at out/obs-metrics.txt)"

# native-smoke proves the native execution backend end to end through
# the binary: compile the six benchmarks, run each as real goroutines and
# verify it bit for bit against the BSP simulator from the command line.
# The matrices behind it — every routine × version × P, the traffic
# golden, the runners' lifecycle, what a warm and a cold run allocate —
# are tests of internal/native and the root package.
native-smoke:
	@mkdir -p out
	$(GO) run ./cmd/hpfc verify -backend native | tee out/native-smoke.txt
	@grep -q 'native ok, bit-identical to simulator' out/native-smoke.txt || { echo "native-smoke: no native verification line"; exit 1; }
	@n=$$(grep -c 'native ok, bit-identical to simulator' out/native-smoke.txt); \
	[ "$$n" -ge 6 ] || { echo "native-smoke: only $$n of 6 benchmarks verified"; exit 1; }
	@echo "native-smoke: ok"

# nativeprof-smoke proves the native runtime profiler end to end through
# the binary: profile a real gravity run at P=16 through hpfc profile,
# assert the per-processor phase heatmap and skew line rendered, and
# assert the Chrome trace carries the native processor lanes (process 2).
nativeprof-smoke:
	@mkdir -p out
	$(GO) run ./cmd/hpfc profile -bench gravity -n 12 -procs 16 -version comb \
		-native -trace-out out/nativeprof-trace.json | tee out/nativeprof.txt
	@grep -q '== native run: 16 procs' out/nativeprof.txt || { echo "nativeprof-smoke: no native run section"; exit 1; }
	@grep -Eq 'skew [0-9]+\.[0-9]+x' out/nativeprof.txt || { echo "nativeprof-smoke: no skew line"; exit 1; }
	@grep -q '"pid":2' out/nativeprof-trace.json || { echo "nativeprof-smoke: trace lacks native processor lanes"; exit 1; }
	@echo "nativeprof-smoke: ok (trace at out/nativeprof-trace.json)"

# examples-smoke runs the five programs under examples/ and fails unless
# each prints its verification line: each checks a placement it made
# against the sequential program (gcao.Placed.Verify) — the interproc one
# on a routine with its calls inlined, the syntax one on sources with a
# PROCESSORS directive — and stops before that line when the check fails.
examples-smoke:
	@mkdir -p out
	@set -e; for ex in gravity interproc quickstart shallow syntax; do \
		$(GO) run ./examples/$$ex > out/example-$$ex.txt; \
		grep -q 'verified against sequential execution' out/example-$$ex.txt || { echo "examples-smoke: examples/$$ex printed no verification line"; exit 1; }; \
		echo "examples-smoke: examples/$$ex verified"; \
	done
	@echo "examples-smoke: ok"

# fuzz-smoke runs the parser's fuzz target for 30 s past its seed corpus
# (the Fig. 10(a) routines and the AST golden's inputs) and the
# minimised failures checked in under internal/parser/testdata/fuzz/,
# which plain `go test` replays too. A new failure lands in that
# directory: minimise it, fix the parser, and check the file in. `go test
# -fuzz` with a pattern that matches nothing prints "no fuzz tests to
# fuzz" and passes, so the target first fails unless the package lists
# FuzzParse.
fuzz-smoke:
	@$(GO) test -list '^FuzzParse$$' ./internal/parser | grep -qx FuzzParse || { echo "fuzz-smoke: ./internal/parser lists no FuzzParse"; exit 1; }
	$(GO) test ./internal/parser -run 'FuzzParse' -fuzz '^FuzzParse$$' -fuzztime 30s -parallel 2
