package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Start("phase")() // must not panic
	r.Phase("ingress")
	r.SetAttr("k", "v")
	r.EndPhase()
	r.Add("c", 1)
	r.AddDecision(Decision{Entry: 1})
	r.SetProfile(NewCommProfile(2))
	if r.Counter("c") != 0 || r.Counters() != nil {
		t.Fatal("nil recorder retained state")
	}
	if r.Spans() != nil || r.Decisions() != nil || r.CommProfile() != nil {
		t.Fatal("nil recorder returned data")
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		t.Fatalf("nil trace not valid JSON: %v", err)
	}
}

func TestNilProfileIsNoOp(t *testing.T) {
	var p *CommProfile
	p.AddPair(0, 1, 8)
	if p.MaxPairBytes() != 0 {
		t.Fatal("nil profile returned data")
	}
}

func TestSpansNestAndMeasure(t *testing.T) {
	r := New()
	endOuter := r.Start("outer")
	r.Start("inner")()
	endOuter()
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(spans))
	}
	// Completion order: inner closes first.
	if spans[0].Name != "inner" || spans[1].Name != "outer" {
		t.Fatalf("bad span order: %v", spans)
	}
	if spans[0].Depth != 1 || spans[1].Depth != 0 {
		t.Fatalf("bad depths: %+v", spans)
	}
	for _, s := range spans {
		if s.DurUS < 0 || s.StartUS < 0 {
			t.Fatalf("negative time in %+v", s)
		}
	}
	// Double-ending a span must not duplicate it.
	end := r.Start("once")
	end()
	end()
	if got := len(r.Spans()); got != 3 {
		t.Fatalf("double end duplicated span: %d spans", got)
	}
}

// TestPhaseTiling pins the ledger property of request phases:
// consecutive phases share boundaries exactly, so their durations sum to
// the window from the first one's start to the last one's end. A pipeline
// span opened inside a phase nests under it, and a phase keeps its
// attributes.
func TestPhaseTiling(t *testing.T) {
	r := New()
	r.SetAttr("lost", "no phase is open")
	r.Phase("ingress")
	time.Sleep(2 * time.Millisecond)
	r.Phase("queue.wait")
	time.Sleep(2 * time.Millisecond)
	r.Phase("compile")
	r.SetAttr("cache", "hit")
	r.SetAttr("cache", "miss") // overwrite, not duplicate
	end := r.Start("parse")
	time.Sleep(2 * time.Millisecond)
	end()
	r.Phase("finalize")
	r.EndPhase()
	r.EndPhase() // idempotent
	r.Start("after")()

	var phases, pipeline []Span
	for _, s := range r.Spans() {
		if s.Phase {
			phases = append(phases, s)
		} else {
			pipeline = append(pipeline, s)
		}
	}
	if len(phases) != 4 || len(pipeline) != 2 {
		t.Fatalf("phases %+v, pipeline spans %+v", phases, pipeline)
	}
	var sum int64
	for i, p := range phases {
		if p.Depth != 0 {
			t.Errorf("phase %s at depth %d", p.Name, p.Depth)
		}
		sum += p.DurUS
		if i > 0 {
			prev := phases[i-1]
			if prev.StartUS+prev.DurUS != p.StartUS {
				t.Fatalf("gap between %s and %s: %d+%d != %d", prev.Name, p.Name, prev.StartUS, prev.DurUS, p.StartUS)
			}
		}
	}
	first, last := phases[0], phases[len(phases)-1]
	if got := last.StartUS + last.DurUS - first.StartUS; sum != got {
		t.Fatalf("phase sum %d != active window %d", sum, got)
	}
	compile, parse := phases[2], pipeline[0]
	if compile.Name != "compile" || len(compile.Attrs) != 1 || compile.Attrs["cache"] != "miss" || phases[0].Attrs != nil {
		t.Fatalf("attrs: %+v", phases)
	}
	if parse.Depth != 1 || parse.StartUS < compile.StartUS || parse.StartUS+parse.DurUS > compile.StartUS+compile.DurUS {
		t.Fatalf("parse %+v does not nest in compile %+v", parse, compile)
	}
	if after := pipeline[1]; after.Depth != 0 {
		t.Fatalf("a span after the last phase at depth %d", after.Depth)
	}
}

func TestCounters(t *testing.T) {
	r := New()
	r.Add("x", 2)
	r.Add("x", 3)
	if r.Counter("x") != 5 {
		t.Fatalf("counter x = %d", r.Counter("x"))
	}
	// Counters() returns a copy.
	r.Counters()["x"] = 99
	if r.Counter("x") != 5 {
		t.Fatal("Counters() leaked internal map")
	}
}

func TestTraceFormatIsValidChromeTrace(t *testing.T) {
	r := New()
	r.Start("parse")()
	r.Start("place")()
	r.Add("groups", 4)
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TS   *int64 `json:"ts"`
			PID  int    `json:"pid"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(f.TraceEvents) != 3 { // two spans + metrics instant
		t.Fatalf("want 3 events, got %d", len(f.TraceEvents))
	}
	for _, e := range f.TraceEvents {
		if e.Name == "" || e.Ph == "" || e.TS == nil || e.PID == 0 || e.TID == 0 {
			t.Fatalf("event missing required fields: %+v", e)
		}
	}
}

func TestMetricsJSONDeterministic(t *testing.T) {
	build := func() string {
		r := New()
		r.Add("b", 2)
		r.Add("a", 1)
		r.AddDecision(Decision{Version: "comb", Entry: 0, Array: "u", Kind: "NNC", Outcome: OutcomePlaced, SubsumedBy: -1})
		doc := r.Doc()
		doc.Spans = nil // spans carry timings; exclude from determinism check
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if build() != build() {
		t.Fatal("metrics JSON not deterministic")
	}
}

func TestCommProfileAccounting(t *testing.T) {
	p := NewCommProfile(3)
	p.AddPair(0, 1, 16)
	p.AddPair(0, 1, 16)
	p.AddPair(2, 0, 8)
	p.AddPair(9, 0, 8) // out of range: ignored
	if p.PairBytes[0][1] != 32 || p.PairMsgs[0][1] != 2 {
		t.Fatalf("pair accounting wrong: %+v", p.PairBytes)
	}
	if p.MaxPairBytes() != 32 {
		t.Fatalf("MaxPairBytes = %d", p.MaxPairBytes())
	}
}

func TestDecisionFormat(t *testing.T) {
	placed := Decision{Version: "comb", Entry: 3, Array: "cu", Kind: "NNC", Earliest: "B2.top",
		Latest: "B5.top", Candidates: []string{"B2.top", "B5.top"}, Outcome: OutcomePlaced,
		SubsumedBy: -1, Group: 1, GroupPos: "B5.top", GroupSize: 3, Combined: true}
	s := placed.Format()
	for _, want := range []string{"e3", "cu", "NNC", "group1@B5.top", "combined with 2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("placed format %q missing %q", s, want)
		}
	}
	sub := Decision{Entry: 4, Array: "h", Kind: "NNC", Outcome: OutcomeSubsumed, SubsumedBy: 2, SubsumedAt: "B3.top"}
	if s := sub.Format(); !strings.Contains(s, "subsumed by e2") || !strings.Contains(s, "B3.top") {
		t.Fatalf("subsumed format %q", s)
	}
	coal := Decision{Entry: 5, Array: "z", Kind: "NNC", Outcome: OutcomeCoalesced, SubsumedBy: -1, Carriers: []int{1, 2}}
	if s := coal.Format(); !strings.Contains(s, "coalesced into axis exchanges {e1, e2}") {
		t.Fatalf("coalesced format %q", s)
	}
}

var spanSink []byte

// TestSpanAllocAccounting pins what a span costs and what it reports: two
// small objects (the closure and its state, no 5.8 KB MemStats), and a
// large allocation counted at once although nothing stopped the world.
func TestSpanAllocAccounting(t *testing.T) {
	r := New()
	if n := testing.AllocsPerRun(200, func() { r.Start("phase")() }); n > 2 {
		t.Errorf("Start + end allocate %v objects, want <= 2", n)
	}
	end := r.Start("big")
	spanSink = make([]byte, 1<<20)
	end()
	spans := r.Spans()
	if got := spans[len(spans)-1].AllocBytes; got < 1<<20 {
		t.Errorf("span around a 1 MiB allocation reports %d bytes", got)
	}
}
