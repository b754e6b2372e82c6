package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"strings"
	"testing"

	"gcao/internal/native/prof"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 107 {
		t.Fatalf("sum = %v", h.Sum())
	}
	// le=1 catches 0.5 and the boundary value 1; le=2 adds 1.5; le=4
	// adds the boundary 4; +Inf adds 100.
	want := []uint64{2, 3, 4, 5}
	got := h.Cumulative()
	if len(got) != len(want) {
		t.Fatalf("cumulative = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cumulative = %v, want %v", got, want)
		}
	}
	// A nil histogram is inert.
	var nilH *Histogram
	nilH.Observe(1)
	if nilH.Count() != 0 || nilH.Sum() != 0 || nilH.Cumulative() != nil {
		t.Fatal("nil histogram retained state")
	}
}

func TestHistogramDropsExplicitInf(t *testing.T) {
	h := NewHistogram([]float64{1, math.Inf(1)})
	if got := len(h.Bounds()); got != 1 {
		t.Fatalf("bounds = %v", h.Bounds())
	}
}

func TestRegistryAbsorbAndRender(t *testing.T) {
	rec := New()
	rec.Phase("compile")
	rec.Start("parse")()
	rec.Phase("place")
	rec.Start("place:comb")()
	rec.EndPhase()
	rec.Add("place.comb.entries", 20)
	rec.Add("place.comb.groups", 8)
	rec.Add("spmd.comb.bytes", 4096)

	reg := NewRegistry()
	reg.Absorb(rec, "ok")
	reg.Absorb(nil, "error") // nil recorder still counts the request

	if reg.Requests() != 2 {
		t.Fatalf("requests = %d", reg.Requests())
	}
	if reg.Counter("place.comb.groups") != 8 {
		t.Fatalf("counter = %d", reg.Counter("place.comb.groups"))
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := CheckPromText(buf.Bytes()); err != nil {
		t.Fatalf("exposition not parseable: %v\n%s", err, text)
	}
	for _, want := range []string{
		`gcao_requests_total{status="ok"} 1`,
		`gcao_requests_total{status="error"} 1`,
		`gcao_pipeline_counter_total{name="place.comb.groups"} 8`,
		`gcao_phase_seconds_bucket{phase="parse",le="+Inf"} 1`,
		`gcao_phase_seconds_count{phase="parse"} 1`,
		`gcao_placed_messages_bucket{version="comb",le="8"} 1`,
		`gcao_placed_messages_sum{version="comb"} 8`,
		`gcao_comm_bytes_bucket{version="comb",le="4096"} 1`,
		`# TYPE gcao_phase_seconds histogram`,
		`# TYPE gcao_requests_total counter`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	// Request phases are the flight record's, not the phase histogram's.
	if strings.Contains(text, `phase="compile"`) || strings.Contains(text, `phase="place"`) {
		t.Errorf("request phases reached gcao_phase_seconds:\n%s", text)
	}
	// A second render with no new absorption is byte-identical
	// (deterministic label order).
	var buf2 bytes.Buffer
	if err := reg.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("exposition not deterministic")
	}
}

func TestRegistryObserveBytes(t *testing.T) {
	reg := NewRegistry()
	reg.ObserveBytes("comb", 1000)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `gcao_comm_bytes_count{version="comb"} 1`) {
		t.Fatalf("estimate bytes not observed:\n%s", buf.String())
	}
}

func TestRegistryObserveNativeExec(t *testing.T) {
	reg := NewRegistry()
	reg.ObserveNativeExec("comb", prof.RunStats{ElapsedSeconds: 0.012, Messages: 96, WireBytes: 4096, Hops: 12, AllocBytes: 0}, nil)
	reg.ObserveNativeExec("comb", prof.RunStats{ElapsedSeconds: 0.014, Messages: 96, WireBytes: 4096, Hops: 12, AllocBytes: 512}, nil)
	reg.ObserveNativeExec("orig", prof.RunStats{ElapsedSeconds: 0.020, Messages: 480, WireBytes: 20480, Hops: 60, AllocBytes: 2048}, nil)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := CheckPromText(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	if !strings.Contains(text, `gcao_native_exec_seconds_count{version="comb"} 2`) {
		t.Fatalf("native exec histogram missing:\n%s", text)
	}
	if !strings.Contains(text, `gcao_native_messages_total{version="orig"} 480`) {
		t.Fatalf("native message counter missing:\n%s", text)
	}
	if !strings.Contains(text, `gcao_native_messages_total{version="comb"} 192`) {
		t.Fatalf("native message counter not accumulated:\n%s", text)
	}
	if !strings.Contains(text, `gcao_native_wire_bytes_total{version="comb"} 8192`) {
		t.Fatalf("native wire-byte counter missing:\n%s", text)
	}
	if !strings.Contains(text, `gcao_native_collective_hops_total{version="orig"} 60`) {
		t.Fatalf("native hop counter missing:\n%s", text)
	}
	if !strings.Contains(text, `gcao_native_alloc_bytes_total{version="comb"} 512`) {
		t.Fatalf("native alloc counter missing:\n%s", text)
	}
	// No run was profiled, so none of the profiler-derived families may
	// appear — an unprofiled run must not export zeros as measurements.
	if strings.Contains(text, "gcao_native_blocked_seconds_total") {
		t.Fatalf("unprofiled run exported gcao_native_blocked_seconds_total:\n%s", text)
	}
}

func TestRegistryObserveNativeProfiled(t *testing.T) {
	reg := NewRegistry()
	reg.ObserveNativeExec("comb",
		prof.RunStats{ElapsedSeconds: 0.012, Messages: 96, WireBytes: 4096},
		&prof.NativeProfile{SkewRatio: 1.25, BlockedSeconds: 0.004})
	reg.ObserveNativeExec("comb",
		prof.RunStats{ElapsedSeconds: 0.013, Messages: 96, WireBytes: 4096},
		&prof.NativeProfile{SkewRatio: 1.5, BlockedSeconds: 0.006})
	reg.ObserveNativeExec("orig",
		prof.RunStats{ElapsedSeconds: 0.02, Messages: 480, WireBytes: 20480},
		&prof.NativeProfile{SkewRatio: 2, BlockedSeconds: 0.5})
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := CheckPromText(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	// Blocked time accumulates.
	if !strings.Contains(text, `gcao_native_blocked_seconds_total{version="comb"} 0.01`) {
		t.Fatalf("blocked counter not accumulated:\n%s", text)
	}
	// Skew is one run's answer (its profile and response carry it), not
	// an aggregate.
	if strings.Contains(text, "skew") {
		t.Fatalf("a run's skew exported:\n%s", text)
	}
}

func TestCheckPromTextTwoLabelFamily(t *testing.T) {
	// The two-label writer must produce samples the validator accepts
	// even with exotic label values.
	g := NewRegistry()
	g.ObserveHTTP(`/we"ird\route`+"\n", 200, 0.01)
	var b strings.Builder
	if err := g.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := CheckPromText([]byte(b.String())); err != nil {
		t.Fatalf("escaped labels not scrapeable: %v", err)
	}
}

func TestCheckPromTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"metric_without_type 1\n",
		"# TYPE m counter\nm{unterminated=\"x} 1\n",
		"# TYPE m histogram\nm_bucket{le=\"1\"} 5\nm_bucket{le=\"2\"} 3\nm_bucket{le=\"+Inf\"} 5\nm_sum 1\nm_count 5\n",
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n", // missing _sum
		"not a metric line at all\n",
	} {
		if err := CheckPromText([]byte(bad)); err == nil {
			t.Errorf("CheckPromText accepted %q", bad)
		}
	}
	good := "# HELP m things\n# TYPE m counter\nm{l=\"a\"} 1\nm{l=\"b\"} 2\n"
	if err := CheckPromText([]byte(good)); err != nil {
		t.Errorf("CheckPromText rejected valid text: %v", err)
	}
}

func TestRecorderEventCarriesReqID(t *testing.T) {
	var buf bytes.Buffer
	rec := New()
	rec.SetLog(slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})), "req-9")
	rec.Start("parse")() // emits phase.done at debug
	rec.Event(slog.LevelInfo, "place.done", slog.Int("groups", 4))
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 events, got %d: %q", len(lines), out)
	}
	for _, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event not JSON: %v", err)
		}
		if ev["req"] != "req-9" || ev["msg"] == nil || ev["time"] == nil || ev["level"] == nil {
			t.Fatalf("event missing its request id or a standard key: %s", line)
		}
	}
	// The request id is the first attribute, before the event's own.
	if !strings.Contains(lines[1], `"msg":"place.done","req":"req-9","groups":4}`) {
		t.Fatalf("attribute order lost: %s", lines[1])
	}
	// Detaching stops emission; nil recorder stays inert.
	rec.SetLog(nil, "")
	rec.Event(slog.LevelError, "late")
	if strings.Count(buf.String(), "\n") != 2 {
		t.Fatal("detached recorder still logged")
	}
	var nilRec *Recorder
	nilRec.SetLog(slog.New(slog.NewJSONHandler(&buf, nil)), "x")
	nilRec.Event(slog.LevelError, "x")
}

func TestRegistryCacheFamilies(t *testing.T) {
	g := NewRegistry()
	g.Absorb(nil, "ok")
	// Without a stats callback there are no gcao_cache_* families.
	var buf bytes.Buffer
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "gcao_cache_") {
		t.Fatal("cache families rendered without a callback")
	}
	g.SetCacheStatsFunc(func() []CacheTierStats {
		return []CacheTierStats{
			{Tier: "compile", Entries: 3, Bytes: 4096, Hits: 7, Misses: 3, InflightWaits: 2, Evictions: 1},
			{Tier: "place", Entries: 5, Bytes: 1024, Hits: 9, Misses: 5},
		}
	})
	buf.Reset()
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := CheckPromText([]byte(text)); err != nil {
		t.Fatalf("exposition with cache families invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		`gcao_cache_hits_total{tier="compile"} 7`,
		`gcao_cache_hits_total{tier="place"} 9`,
		`gcao_cache_misses_total{tier="compile"} 3`,
		`gcao_cache_inflight_waits_total{tier="compile"} 2`,
		`gcao_cache_evictions_total{tier="compile"} 1`,
		`gcao_cache_entries{tier="place"} 5`,
		`gcao_cache_bytes{tier="compile"} 4096`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	// Unregistering removes the families again.
	g.SetCacheStatsFunc(nil)
	buf.Reset()
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "gcao_cache_") {
		t.Fatal("cache families rendered after unregistering")
	}
}
