package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"sync"
	"testing"
)

// TestRecorderConcurrency hammers one Recorder from many goroutines —
// spans, request phases and their attributes, counters, decisions, profiles, snapshots and exports
// all interleaved — so `go test -race` proves every access path is
// guarded. The final totals double-check that no increments were lost
// to unsynchronized map writes.
func TestRecorderConcurrency(t *testing.T) {
	const workers = 16
	const iters = 200
	r := New()
	r.SetLog(slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug})), "race")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				end := r.Start(fmt.Sprintf("phase%d", w%4))
				r.Add("shared", 1)
				r.Add(fmt.Sprintf("worker.%d", w), 1)
				if i%50 == 0 {
					r.Phase(fmt.Sprintf("phase.%d", i))
				}
				r.SetAttr("worker", strconv.Itoa(w))
				r.AddDecision(Decision{Entry: i, SubsumedBy: -1, Group: -1})
				r.Event(slog.LevelDebug, "tick", slog.Int("i", i))
				if i%16 == 0 {
					p := NewCommProfile(2)
					p.AddPair(0, 1, 8)
					r.SetProfile(p)
				}
				// Concurrent readers.
				_ = r.Counters()
				_ = r.Spans()
				_ = r.Counter("shared")
				_ = r.CommProfile()
				if i%32 == 0 {
					_ = r.WriteTrace(io.Discard)
					_ = r.WriteMetrics(io.Discard)
				}
				end()
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared"); got != workers*iters {
		t.Fatalf("lost counter increments: %d != %d", got, workers*iters)
	}
	if got := len(r.Decisions()); got != workers*iters {
		t.Fatalf("lost decisions: %d != %d", got, workers*iters)
	}
	r.EndPhase()
	pipeline, phases := 0, 0
	for _, s := range r.Spans() {
		if s.Phase {
			phases++
		} else {
			pipeline++
		}
	}
	if pipeline != workers*iters || phases != workers*iters/50 {
		t.Fatalf("lost spans: %d pipeline spans, %d phases; want %d, %d", pipeline, phases, workers*iters, workers*iters/50)
	}
}

// TestRegistryConcurrency absorbs recorders and scrapes the registry
// concurrently — the daemon's steady state under load. (The retention
// store races beside a registry in reqtrace's
// TestFlightConcurrentWraparound.)
func TestRegistryConcurrency(t *testing.T) {
	const workers = 12
	const iters = 100
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rec := New()
				rec.Start("parse")()
				rec.Add("place.comb.groups", int64(w+1))
				rec.Add("spmd.comb.bytes", 1024)
				reg.Absorb(rec, "ok")
				reg.ObserveBytes("comb", 10)
				if i%10 == 0 {
					if err := reg.WritePrometheus(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Requests(); got != workers*iters {
		t.Fatalf("lost requests: %d != %d", got, workers*iters)
	}
}
