package main

import (
	"encoding/json"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"gcao/internal/native"
)

// comparableResponse decodes a /compile response and drops what may differ
// between two executions of one request: the request id and what the
// native run measured of the clock and the heap — its wall clock, what its
// profile derives from the clock, and the fabric's allocations, which a
// pooled engine's first run alone has.
func comparableResponse(body []byte, err error) (map[string]any, error) {
	var doc map[string]any
	if err == nil {
		err = json.Unmarshal(body, &doc)
	}
	if err != nil {
		return nil, err
	}
	delete(doc, "req_id")
	if nat, ok := doc["native"].(map[string]any); ok {
		for _, k := range []string{"seconds", "alloc_bytes", "skew_ratio", "blocked_seconds"} {
			delete(nat, k)
		}
	}
	return doc, nil
}

// TestConcurrentExecOnOnePlacement: eight clients, fifty exec requests
// each, simulator and native mixed, all on one cached placement — whose
// pooled engines they therefore share — answered through the handler.
// Every response is the sequential one, and no goroutine outlives the
// requests. Run under -race: an engine handed to two requests at once, or
// back to the pool while a response still reads it, is a data race here.
func TestConcurrentExecOnOnePlacement(t *testing.T) {
	const clients, requests = 8, 50
	h := benchServer(t).handler()
	bodies := [2][]byte{shallowBody(t, 12, 4, true, ""), shallowBody(t, 12, 4, true, "native")}
	var want [2]map[string]any
	for i, body := range bodies {
		mustServe(t, h, body) // the cache outcomes of the first request are its own
		var err error
		if want[i], err = comparableResponse(serve(h, body)); err != nil {
			t.Fatal(err)
		}
	}
	if want[1]["native"] == nil || want[0]["simulate"] == nil {
		t.Fatalf("exec responses lack their execution reports")
	}
	// Runners that earlier tests parked, and that idle out while this
	// waits, neither hide a leaked goroutine nor count as one.
	nonRunners := func() int { return runtime.NumGoroutine() - native.Runners() }
	before := nonRunners()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				k := (c + i) % 2
				got, err := comparableResponse(serve(h, bodies[k]))
				if err != nil {
					t.Errorf("client %d request %d: %v", c, i, err)
					return
				}
				if !reflect.DeepEqual(got, want[k]) {
					t.Errorf("client %d request %d: response differs from the sequential one:\n got %v\nwant %v", c, i, got, want[k])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for nonRunners() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := nonRunners(); after > before {
		t.Errorf("%d goroutines beside the runners before the requests, %d after", before, after)
	}
}

// TestWarmExecAllocations pins what an exec request costs once its
// placement holds warm engines: no memory image, no lowering, no channel
// fabric, no profiler ring — the parent of the pools spent 3,141 and 6,324
// allocations here. The budgets are 1.25× the 132 and 192 measured.
// AllocsPerRun runs at GOMAXPROCS(1); no collection meanwhile, which would
// empty the pools.
func TestWarmExecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops engines at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	h := benchServer(t).handler()
	for _, tc := range []struct {
		backend string
		budget  float64
	}{{"", 165}, {"native", 240}} {
		body := shallowBody(t, 32, 4, true, tc.backend)
		if n := testing.AllocsPerRun(20, func() { mustServe(t, h, body) }); n > tc.budget {
			t.Errorf("a warm exec request (backend %q) allocates %v objects, budget %v", tc.backend, n, tc.budget)
		} else {
			t.Logf("backend %q: %v allocations a request", tc.backend, n)
		}
	}
}
