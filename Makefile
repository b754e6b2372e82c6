GO ?= go

.PHONY: all build test vet fmt-check race check run-names bench-build attr-smoke obs-smoke native-smoke nativeprof-smoke compile-smoke sim-smoke examples-smoke fuzz-smoke size reach

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

check: build vet fmt-check run-names test bench-build compile-smoke sim-smoke examples-smoke size reach

# run-names fails when a -run alternative of a `go test` line below names
# no test of its package: `go test -run` that matches nothing passes, so a
# moved or renamed test would otherwise drop out of CI silently.
run-names:
	@GO="$(GO)" sh ci/run-names.sh

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

# attr-smoke proves the cost-attribution path end to end: compile and
# simulate one benchmark with -blame and a Chrome trace, hold hpfc
# profile's stdout (heatmap, superstep timeline, time split, blame
# table) to its goldens, assert the trace's superstep lane came out
# non-empty, and run the exposition tests covering the Prometheus
# attribution family (gcao_superstep_hrelation_bytes, labeled by version
# alone: per-site bytes stay in the request's critpath facet) through
# CheckPromText.
attr-smoke:
	@mkdir -p out
	$(GO) run ./cmd/hpfc profile -bench shallow -procs 4 -version comb \
		-blame 5 -trace-out out/attr-trace.json
	$(GO) test ./cmd/hpfc -run 'TestGoldenStdout/profile' -count=1
	@grep -q '"tid":2' out/attr-trace.json || { echo "attr-smoke: trace lacks the superstep lane"; exit 1; }
	@grep -q '"h_in"' out/attr-trace.json || { echo "attr-smoke: trace lacks h-relations"; exit 1; }
	$(GO) test ./internal/obs -run 'TestRegistryAttributionFamilies|TestHistogramBucketBoundaries' -count=1
	$(GO) test ./internal/spmd -run 'TestAttributionMatchesSequential|TestBlameLinksToGreedyDecision' -count=1
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
# /metrics keeps a fixed schema: forty compiles of ever longer routines
# under new names, natively every other time, leave exactly the series
# the first of each kind left (TestMetricsSeriesBounded).
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
	$(GO) test ./cmd/gcaod -run 'TestFlightRecorderResolvesCompile|TestRetainedRecordSpans|TestSlowRecordKeepsFacets|TestDebugRouteTable|TestTraceparentRoundTrip' -count=1
	$(GO) test ./cmd/gcaod -run 'TestMetricsSeriesBounded' -count=1
	@echo "obs-smoke: ok (metrics at out/obs-metrics.txt)"

# native-smoke proves the native execution backend end to end: compile
# the shallow benchmark, run it as real goroutines, verify bit-for-bit
# against the BSP simulator from the command line, then run the
# exhaustive native-vs-simulator matrix, the library's
# (*gcao.Placed).VerifyNative over every routine × strategy at P=4
# (TestPlacedVerifyNative), and the oversubscription
# regression test, the runners' lifecycle (a warm run starts no
# goroutine; a failed run, two engines at once under a bound, the idle
# exit), the traffic golden (every message and byte of the six
# Fig. 10(a) routines × 3 versions × P ∈ {4, 16}), the split-phase SUM
# edge cases (gather at the statement, settle at the global-sum group,
# engine reuse after a run failed between the two) and the profiler's
# attribution of both SUM legs to the group's step, the bytes of an
# engine's image of local boxes (TestImageBytes) and a read past a box
# reported stale, never aliased, the longest list of valid boxes of every
# routine (TestValidBoxFragmentation) and a strip its sender holds partly
# valid, then what a warm plane rests on: a translated exchange
# schedule against one rebuilt from scratch (the rule in runtime, the
# schedules of the six Fig. 10(a) routines in plan, the pinned replay
# shares), the lists of valid boxes against a flag per element after
# random operations and Resets, and the
# lowered mod against math.Mod bit for bit, the row kernel both backends
# execute against the element walk (operands read in place, the last
# operation writing the target, a stuck box, no allocation), and, under
# the race detector, one lowered program under two engines of each
# backend at once (a Program is shared by every engine of its placement
# and written by none) and the four paper benchmarks run natively at once
# (each goroutine writes only its own rows, shared rows only inside
# barriers). Finally
# it measures the two
# steady-state allocation benchmarks (gravity and shallow × 40 steps,
# P=16, engine reuse) and fails if the allocs/op of either exceeds the
# checked-in budget in ci/native-alloc-budget.txt — a warm run packs into
# the pairs' rings, replays or translates its schedules and hands its
# processors to parked runners, so it allocates its RunResult and starts
# no goroutine (budget 2: one for the result, one for the Go runtime's
# channel waiters after a collection), and a hot path that starts
# allocating again is a regression.
native-smoke:
	@mkdir -p out
	$(GO) run ./cmd/hpfc verify -backend native | tee out/native-smoke.txt
	@grep -q 'native ok, bit-identical to simulator' out/native-smoke.txt || { echo "native-smoke: no native verification line"; exit 1; }
	@n=$$(grep -c 'native ok, bit-identical to simulator' out/native-smoke.txt); \
	[ "$$n" -ge 6 ] || { echo "native-smoke: only $$n of 6 benchmarks verified"; exit 1; }
	$(GO) test ./internal/native -run 'TestNativeMatchesSimulator|TestNativeOversubscription|TestReusedEngineMatchesFresh|TestNativeLocalizationEdgeCases/(mod|mixed)|TestWarmRunStartsNoGoroutine|TestRunners' -count=1
	$(GO) test . -run 'TestPlacedVerifyNative' -count=1
	$(GO) test ./internal/native -run 'TestNativeTrafficGolden|TestNativeSplitSumEdgeCases|TestNativeReuseAfterFailedSplitSum|TestNativeProfileSumAttribution|TestImageBytes|TestStaleReadOutsideLocalBox|TestValidBoxFragmentation|TestPartiallyValidStrip' -count=1
	$(GO) test ./internal/runtime -run 'TestStripShiftMatchesRebuild|TestValidBoxesMatchPlane|TestBulkOperationsDoNotAllocate' -count=1
	$(GO) test ./internal/plan -run 'TestModMatchesMathMod|TestScheduleReplayShare|TestTranslatedScheduleMatchesRebuilt|TestScheduleKeyHoldsBoundBits|TestRowMatchesElementWalk|TestRowDeclinesWhole|TestRunRowDoesNotAllocate' -count=1
	$(GO) test -race ./internal/native -run 'TestSharedProgramConcurrentEngines|TestNativeConcurrentBenchmarks' -count=1
	@GO="$(GO)" sh ci/alloc-budget.sh 'BenchmarkNative(Alloc|Comm)$$' ci/native-alloc-budget.txt native-smoke
	@echo "native-smoke: ok"

# nativeprof-smoke proves the native runtime profiler end to end:
# profile a real gravity run at P=16 through hpfc profile, assert the
# per-processor phase heatmap and skew line rendered, assert the Chrome
# trace carries the native processor lanes (process 2), and run the
# bit-identity, step-join and fold tests (the last under the race
# detector). That an armed-but-disabled profiler costs nothing on the
# warm path is TestNativeProfilingOffCostsNothing here; the allocation
# budget of the same binary is native-smoke's.
nativeprof-smoke:
	@mkdir -p out
	$(GO) run ./cmd/hpfc profile -bench gravity -n 12 -procs 16 -version comb \
		-native -trace-out out/nativeprof-trace.json | tee out/nativeprof.txt
	@grep -q '== native run: 16 procs' out/nativeprof.txt || { echo "nativeprof-smoke: no native run section"; exit 1; }
	@grep -Eq 'skew [0-9]+\.[0-9]+x' out/nativeprof.txt || { echo "nativeprof-smoke: no skew line"; exit 1; }
	@grep -q '"pid":2' out/nativeprof-trace.json || { echo "nativeprof-smoke: trace lacks native processor lanes"; exit 1; }
	$(GO) test ./internal/native -run 'TestNativeProfileBitIdentity|TestNativeProfileTilesWallTime|TestNativeStepsJoinAttribution|TestNativeProfilingOffCostsNothing' -count=1
	$(GO) test -race ./internal/native -run 'TestNativeProfileFoldRace' -count=1
	@echo "nativeprof-smoke: ok (trace at out/nativeprof-trace.json)"

# compile-smoke proves the compile path end to end and holds its cost:
# the Fig. 10(a) table must come out of hpfc fig10a with hydflo/flux at
# its 52/30/6 call sites (TestFig10aHydfloFlux), the affine forms' sorted
# terms must agree with the map model on random forms
# (TestFormMatchesMapModel), the placement golden file, the section-table and
# shared-analysis tests must pass (the last under the race detector —
# an Analysis is shared lock-free), a compilation instantiated from a
# cached skeleton must equal the one compiled from the text (the
# differential test), eight goroutines must share one skeleton under the
# race detector — it is never written once published — a known source at
# a new size must stay within its allocation pins (through the library
# and through gcaod's handler) with no front-end or structural span, and
# a full compile of hydflo/flux (parse through the three placements,
# BenchmarkFig10aHydfloFlux) must stay within the allocation budget in
# ci/compile-alloc-budget.txt: 1.25x the measured allocs/op — 195, for
# the 156 it takes once the analysis layers (sem's distributions, the CFG,
# the dominance frontier, SSA, the class memo, the bound and a Result's
# entry tables) take their tables from one slab per element type sized by
# counts (211 once placement keeps its redundancy and position tables
# by entry ID, 238 once the dependence memo keeps one direction vector
# per class of (def, use) pair and diagonal coalescing carves its lists
# from slabs, 329 and a budget of 411 before; 1,049 before sem, the
# skeleton's layers and the candidate lists allocated by the routine),
# where the revision before the per-level section tables spent 399 416 —
# a pair test that starts re-expanding sections again is a regression
# long before it shows in milliseconds. gcaod's cold request for a known
# source is held within 10 % of its count (TestColdKnownSourceAllocs,
# 361 under a budget of 397; 391 under 430 before the analysis layers
# were carved, 493 under 540 before the class memo). The
# analysis must keep every answer while it asks fewer questions: every
# entry's CommLevel, Latest, Earliest and candidates equal what the
# exhaustive computation derives on the six routines, 200 random
# programs, the syntax corpus and StencilNests
# (TestLatestEarliestMatchExhaustive), every (def, use) pair gets from
# the class memo the answer a table-less analysis computes
# (TestClassMemoMatchesFresh), and doubling StencilNests' routine may
# grow the Directions evaluations at most 2.3x (TestAnalysisScales). The
# front end below the parser is held the same way:
# what sem.Analyze, core.NewSkeleton and (*Skeleton).Analyze allocate on
# the six routines (TestFrontEndAllocs, 1.25x the measured counts; the
# analysis 207, from 317 and 519), what each analysis layer allocates on
# the six routines — cfg.Build, dom.New, ssa.Build with the frontier and
# Validate, the dependence classification of every pair, bound.Compute —
# and that the graph, the tree, the SSA form and the bound allocate as
# often on StencilNests four times as long (TestAnalysisLayerAllocs,
# 1.25x of 48, 12, 111, 89 and 12; ssa.Build now 117), and the scalarizer
# shares what it does not rewrite with the parsed routine without ever
# writing to it (TestScalarizeLeavesInputIntact) — which is what lets the
# race test below share one skeleton with the source tier's tree. Placement's own storage is held the
# same way: what each version allocates (TestPlaceNilRecorderAllocs), the
# exhaustive §6.1 search never beaten by greedy (TestGreedyVsOptimal), a
# reused analysis placing what a fresh one does
# (TestPlacementScratchPerCall), the on-demand site labels against the
# format Place used to store (TestLazyLabelsMatchEagerFormat), eight
# goroutines placing and labelling one analysis under the race detector
# (TestConcurrentPlacementLabels), and the size-only hull against the
# full one (TestHullCountMatchesHull). The parser's own pins go first: its
# output on the golden corpus byte for byte (TestASTGolden), the nesting
# bound, and what parsing the six routines allocates (TestParseAllocs,
# 1.25x the measured count). What the cache charges is held the same way:
# every tier charges a value what its Bytes counts where it was made —
# each tier's bytes the sum of its residents' counts, a skeleton charged
# where it is held (TestTierChargesCounted) — and each count within 1.25x
# of the heap the value keeps on the six routines: a compilation one-shot
# and as one binding of a cached source, a skeleton-tier front
# (TestCompilationSizeTracksHeap), a placement never run and lowered
# (TestPlacedSizeTracksHeap).
compile-smoke:
	$(GO) test ./internal/parser -run 'TestASTGolden|TestParseNestingLimit|TestParseAllocs' -count=1
	$(GO) test ./cmd/hpfc -run 'TestFig10aHydfloFlux' -count=1
	$(GO) test ./internal/lin -run 'TestFormMatchesMapModel' -count=1
	$(GO) test ./internal/asd -run 'TestHullCountMatchesHull' -count=1
	$(GO) test ./internal/scalarize -run 'TestScalarizeLeavesInputIntact' -count=1
	$(GO) test ./internal/core -run 'TestPlacementGolden|TestSectionTableMatchesExpansion|TestPlaceNilRecorderAllocs|TestNilTallyCostsNothing|TestGreedyVsOptimal|TestPlacementScratchPerCall|TestLazyLabelsMatchEagerFormat|TestFrontEndAllocs|TestAnalysisLayerAllocs|TestLatestEarliestMatchExhaustive|TestAnalysisScales' -count=1
	$(GO) test ./internal/dep -run 'TestClassMemoMatchesFresh' -count=1
	$(GO) test -race ./internal/core -run 'TestSharedAnalysisConcurrentPlace|TestConcurrentPlacementLabels' -count=1
	$(GO) test . -run 'TestSkeletonMatchesMonolithic|TestSkeletonHitPin|TestCompilationSizeTracksHeap|TestPlacedSizeTracksHeap|TestTierChargesCounted' -count=1
	$(GO) test ./cmd/gcaod -run 'TestColdKnownSourceAllocs' -count=1
	$(GO) test -race . -run 'TestSkeletonSharedConcurrently' -count=1
	@GO="$(GO)" sh ci/alloc-budget.sh 'BenchmarkFig10aHydfloFlux$$' ci/compile-alloc-budget.txt compile-smoke
	@echo "compile-smoke: ok"

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
# directory: minimise it, fix the parser, and check the file in.
fuzz-smoke:
	$(GO) test ./internal/parser -run 'FuzzParse' -fuzz '^FuzzParse$$' -fuzztime 30s -parallel 2

# sim-smoke holds what the BSP simulator charges and what it costs: the
# ledger golden file (messages, bytes, barriers and every clock bit, at
# 1, 3 and GOMAXPROCS shards) must pass unchanged, the one final-state
# comparison must hold its table (TestCompareState: bit for bit, NaN
# equal to NaN, -0 apart from +0), the per-receiver
# strip delivery (StripRuns runs copied by CopyValid, what a receiver's
# exchange schedule replays) must leave exactly what the per-element
# section scan it replaced left (rows, validity, per-pair bytes), the
# lists of valid boxes must keep a flag-per-element twin's validity under
# random operations, a nest entry whose reads are valid but whose proof
# declines must leave the element walk's image, runs 1-4 of one engine
# must leave what a new engine's run leaves, gcao.Placed.Verify must find
# the placed run equal to the sequential program's on a routine with its
# calls inlined, on a source with a PROCESSORS directive and on the six
# Fig. 10(a) routines under every strategy,
# the receive-only schedules must be built once per (exchange, receiver)
# and replayed or translated to what a rebuild gives, the sharded
# run must match the sequential one under the race detector — shards
# deliver into disjoint receivers without locks, reading the senders'
# valid boxes from the copy the superstep's Freeze made — as must two
# simulator engines (and two native ones) running one lowered program at
# once, and one single-shard run of hydflo/flux (BenchmarkSimVerify/j1:
# n=16, 4 steps, P=16, memory image and lowered program rebuilt per run,
# as spmd.RunParallel on a bare placement result does) must stay
# within the allocation budget in ci/sim-alloc-budget.txt: 1.25x the
# measured allocs/op (143 since the collective tree's int tables share one
# slab and an image's first Freeze gives every array's list copy its room
# from one; 155 since a layout, an image and a frame are each
# carved from one slab per element type, whatever the number of arrays or
# processors; 279 since every list a lowered program keeps is popped from
# a stack into a slab, 393 before, 474 before lowering carved its
# communication positions and nest lists), where the revision that scanned whole sections
# into per-call pair maps spent 10 300, the one that lowered by the
# expression 3 645 and the one whose expressions were closures 767 — a
# bulk memory operation or a lowered form that allocates per call again is
# a regression long before it shows in milliseconds. Lowering carves its forms and lists from slabs: every Terms slice,
# every list a lowered program keeps, every plane of an image and every
# table of a frame must be capped at its length (TestLoweredTermsCapped,
# and TestCarvedTablesCapped for a layout's tables and an image's lists),
# what lowering allocates is pinned on flux and shallow
# (TestLowerAllocations), and what a layout, an image and a frame
# allocate must not depend on the number of arrays or processors
# (TestCarvingAllocatesByType, TestNewFrameAllocatesByType). The image the simulator rebuilds per run is its
# processors' local boxes: TestImageBytes pins its bytes, and a read past
# a box must be a stale read, never another element's value. The row
# kernel the simulator executes is held against the element walk bit for
# bit, a box it cannot prove is left whole to the tree, and it allocates
# nothing. Eight callers placing and simulating one compilation at once
# under the race detector must each find exactly their own call's
# telemetry on the recorder they passed (TestRecorderGetsOnlyItsCall).
sim-smoke:
	@mkdir -p out
	$(GO) test ./internal/spmd -run 'TestLedgerGolden' -count=1
	$(GO) test ./internal/runtime -run 'TestStripMatchesElementScan|TestOwnerRunsMatchElementScan|TestValidBoxesMatchPlane|TestBulkOperationsDoNotAllocate|TestCompareState|TestCarvingAllocatesByType|TestCarvedTablesCapped' -count=1
	$(GO) test ./internal/plan -run 'TestScheduleReplayShare|TestTranslatedScheduleMatchesRebuilt|TestEntryProofDeclinesValidNest|TestRowMatchesElementWalk|TestRowDeclinesWhole|TestRunRowDoesNotAllocate|TestLoweredTermsCapped|TestLowerAllocations|TestNewFrameAllocatesByType' -count=1
	$(GO) test ./internal/native -run 'TestImageBytes|TestStaleReadOutsideLocalBox' -count=1
	$(GO) test ./internal/spmd -run 'TestReusedEngineMatchesFresh' -count=1
	$(GO) test . -run 'TestPublicAPI|TestInterprocedural|TestPlacedVerifyNative' -count=1
	$(GO) test -race ./internal/spmd -run 'TestParallelMatchesSequential' -count=1
	$(GO) test -race . -run 'TestRecorderGetsOnlyItsCall' -count=1
	$(GO) test -race ./internal/native -run 'TestSharedProgramConcurrentEngines' -count=1
	@GO="$(GO)" sh ci/alloc-budget.sh 'BenchmarkSimVerify/j1$$' ci/sim-alloc-budget.txt sim-smoke
	@echo "sim-smoke: ok"
